/**
 * @file
 * Section 8 (future work, implemented here): conformal confidence bounds
 * on Concorde's CPI predictions. Fits a split-conformal calibration on
 * half of the test split and validates empirical coverage and interval
 * width on the other half.
 */

#include "bench_util.hh"
#include "ml/calibration.hh"

using namespace concorde;

int
main()
{
    const Dataset &test = artifacts::mainTest();
    const size_t half = test.size() / 2;
    std::vector<size_t> cal_idx, eval_idx;
    for (size_t i = 0; i < test.size(); ++i)
        (i < half ? cal_idx : eval_idx).push_back(i);
    const Dataset cal = test.subset(cal_idx);
    const Dataset eval = test.subset(eval_idx);

    const TrainedModel &model = artifacts::fullModel();
    const ConformalCalibration conformal = fitConformalCalibration(
        model.predictBatch(cal.features, cal.dim), cal.labels, cal.features,
        cal.dim);
    const std::vector<float> eval_preds =
        model.predictBatch(eval.features, eval.dim);

    std::printf("=== Section 8 extension: conformal confidence bounds "
                "===\n");
    std::printf("  calibration samples: %zu, evaluation samples: %zu\n",
                cal.size(), eval.size());
    std::printf("  %-8s %12s %14s %16s\n", "alpha", "target cov",
                "empirical cov", "interval width");
    for (double alpha : {0.32, 0.20, 0.10, 0.05, 0.02}) {
        const double coverage =
            empiricalCoverage(conformal, eval_preds, eval.labels, alpha);
        std::printf("  %-8.2f %11.1f%% %13.1f%% %15.1f%%\n", alpha,
                    100 * (1 - alpha), 100 * coverage,
                    100 * conformal.quantile(alpha) * 2);
    }

    // Flagging high-risk predictions: widest-interval samples should
    // carry a disproportionate share of the large errors.
    const auto errors = benchutil::relativeErrors(model, eval);
    std::printf("\n  use case: crosscheck the widest-interval "
                "predictions with a detailed simulator.\n");
    std::printf("  tail errors (>10%%) overall: %.1f%%\n",
                100 * benchutil::summarize(errors).fracAbove10pct);
    return 0;
}
