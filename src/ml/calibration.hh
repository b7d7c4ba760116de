/**
 * @file
 * ConformalCalibration: the serializable product of split-conformal
 * calibration -- the sorted conformity scores from a held-out split
 * plus a per-dimension envelope of the calibration features. This is
 * the piece that travels: trainMlpResumable fits it, ModelArtifact
 * ships it (versioned, optional -- old artifacts load as
 * "uncalibrated"), and the serve layer turns it into per-request
 * intervals and an out-of-distribution flag without ever touching the
 * model again.
 *
 * Interval math (split conformal, symmetric relative residual):
 * with scores s_i = |y_i - yhat_i| / max(yhat_i, eps) sorted ascending,
 * the (1-alpha) quantile q uses the finite-sample corrected rank
 * ceil((n+1)(1-alpha)); the interval around a point prediction p is
 * [max(0, p(1-q)), p(1+q)] and covers the true value with probability
 * >= 1-alpha under exchangeability.
 *
 * OOD score: the fraction of feature dimensions that fall outside the
 * [featLo, featHi] envelope observed during calibration. Features the
 * model never saw anything like score high; in-distribution requests
 * score 0. It is a cheap guardrail, not a density estimate -- the
 * serve layer treats it as "route this one to the simulator", exactly
 * the crosscheck the paper's Section 8 asks for.
 *
 * Offline use needs no wrapper class: fit with
 * fitConformalCalibration(model.predictBatch(x, dim), y, x, dim) and
 * check it with empiricalCoverage.
 */

#ifndef CONCORDE_ML_CALIBRATION_HH
#define CONCORDE_ML_CALIBRATION_HH

#include <cstddef>
#include <vector>

#include "common/serialize.hh"

namespace concorde
{

/** Serializable split-conformal calibration state. */
struct ConformalCalibration
{
    /** Conformity scores from the held-out split, sorted ascending. */
    std::vector<double> scores;
    /** Per-dimension min of the calibration-distribution features. */
    std::vector<float> featLo;
    /** Per-dimension max (same length as featLo; may both be empty). */
    std::vector<float> featHi;

    /** True when a calibration split was actually fitted. */
    bool valid() const { return !scores.empty(); }
    size_t size() const { return scores.size(); }

    /**
     * Conformity-score quantile for miscoverage alpha with the
     * finite-sample correction ceil((n+1)(1-alpha)). alpha in (0, 1);
     * panics on an empty calibration. A rank beyond the calibration
     * support returns an inflated top score (the interval widens
     * instead of silently under-covering).
     */
    double quantile(double alpha) const;

    /** The (1-alpha) interval around a point prediction; lo >= 0. */
    void intervalAround(double point, double alpha, double &lo,
                        double &hi) const;

    /**
     * Fraction of dimensions outside the calibration envelope, in
     * [0, 1]. Returns 0 when no envelope was recorded.
     */
    double oodScore(const float *row, size_t dim) const;

    /** Stream serialization (embedded in ModelArtifact v2). */
    void save(BinaryWriter &out) const;
    static ConformalCalibration load(BinaryReader &in);
};

/**
 * Fit a calibration from predictions + labels of a held-out split,
 * with the feature envelope taken over `envelope_features` (row-major,
 * `dim` wide; typically the *training* split -- the distribution the
 * model actually saw). Pass an empty envelope matrix to skip the
 * envelope (no OOD scoring).
 */
ConformalCalibration
fitConformalCalibration(const std::vector<float> &preds,
                        const std::vector<float> &labels,
                        const std::vector<float> &envelope_features,
                        size_t dim);

/**
 * Fraction of `labels` inside the (1-alpha) interval around their
 * predictions `preds` -- the validation of a calibration on a held-out
 * set (should be >= 1-alpha up to sampling noise). 0 for an empty set.
 */
double empiricalCoverage(const ConformalCalibration &cal,
                         const std::vector<float> &preds,
                         const std::vector<float> &labels, double alpha);

} // namespace concorde

#endif // CONCORDE_ML_CALIBRATION_HH
