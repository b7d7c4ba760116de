#include "ml/calibration.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace concorde
{

double
ConformalCalibration::quantile(double alpha) const
{
    panic_if(alpha <= 0.0 || alpha >= 1.0, "alpha must be in (0, 1)");
    panic_if(scores.empty(), "quantile() on an empty calibration");
    const size_t n = scores.size();
    // Finite-sample corrected rank: ceil((n + 1) (1 - alpha)).
    const double raw_rank =
        std::ceil((static_cast<double>(n) + 1.0) * (1.0 - alpha));
    const size_t rank = static_cast<size_t>(raw_rank);
    if (rank == 0)
        return scores.front();
    if (rank > n)
        return scores.back() * 1.5 + 0.05;  // beyond calibration support
    return scores[rank - 1];
}

void
ConformalCalibration::intervalAround(double point, double alpha,
                                     double &lo, double &hi) const
{
    const double q = quantile(alpha);
    lo = std::max(0.0, point * (1.0 - q));
    hi = point * (1.0 + q);
}

double
ConformalCalibration::oodScore(const float *row, size_t dim) const
{
    if (featLo.size() != dim || featHi.size() != dim || dim == 0)
        return 0.0;
    size_t outside = 0;
    for (size_t d = 0; d < dim; ++d) {
        if (row[d] < featLo[d] || row[d] > featHi[d])
            ++outside;
    }
    return static_cast<double>(outside) / static_cast<double>(dim);
}

void
ConformalCalibration::save(BinaryWriter &out) const
{
    out.putVector(scores);
    out.putVector(featLo);
    out.putVector(featHi);
}

ConformalCalibration
ConformalCalibration::load(BinaryReader &in)
{
    ConformalCalibration cal;
    cal.scores = in.getVector<double>();
    cal.featLo = in.getVector<float>();
    cal.featHi = in.getVector<float>();
    fatal_if(cal.featLo.size() != cal.featHi.size(),
             "calibration envelope lo/hi length mismatch");
    fatal_if(!std::is_sorted(cal.scores.begin(), cal.scores.end()),
             "calibration scores not sorted");
    return cal;
}

ConformalCalibration
fitConformalCalibration(const std::vector<float> &preds,
                        const std::vector<float> &labels,
                        const std::vector<float> &envelope_features,
                        size_t dim)
{
    fatal_if(preds.size() != labels.size(),
             "calibration preds/labels size mismatch");
    fatal_if(labels.empty(), "empty calibration set");
    fatal_if(dim == 0 || envelope_features.size() % dim != 0,
             "envelope features not a multiple of dim");

    ConformalCalibration cal;
    cal.scores.resize(labels.size());
    for (size_t i = 0; i < labels.size(); ++i) {
        const double yhat = std::max(preds[i], 1e-6f);
        cal.scores[i] = std::abs(labels[i] - preds[i]) / yhat;
    }
    std::sort(cal.scores.begin(), cal.scores.end());

    const size_t rows = envelope_features.size() / dim;
    if (rows > 0) {
        cal.featLo.assign(envelope_features.begin(),
                          envelope_features.begin() + dim);
        cal.featHi = cal.featLo;
        for (size_t i = 1; i < rows; ++i) {
            const float *row = envelope_features.data() + i * dim;
            for (size_t d = 0; d < dim; ++d) {
                cal.featLo[d] = std::min(cal.featLo[d], row[d]);
                cal.featHi[d] = std::max(cal.featHi[d], row[d]);
            }
        }
    }
    return cal;
}

double
empiricalCoverage(const ConformalCalibration &cal,
                  const std::vector<float> &preds,
                  const std::vector<float> &labels, double alpha)
{
    panic_if(preds.size() != labels.size(),
             "coverage preds/labels size mismatch");
    if (labels.empty())
        return 0.0;
    size_t covered = 0;
    for (size_t i = 0; i < labels.size(); ++i) {
        double lo = 0.0, hi = 0.0;
        cal.intervalAround(preds[i], alpha, lo, hi);
        covered += labels[i] >= lo && labels[i] <= hi;
    }
    return static_cast<double>(covered) / static_cast<double>(labels.size());
}

} // namespace concorde
