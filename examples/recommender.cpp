// The intro's motivating application: trust-aware review recommendation
// under cold start. When a review has no ratings yet, a community cannot
// rank it by "mean helpfulness" — exactly the situation where a derived
// web of trust helps: the reader's degree of trust in the *writer* is a
// personalized estimate of how helpful the review will be.
//
//   ./build/examples/recommender --users 2000 --cold_fraction 0.15
//
// Protocol: remove ALL ratings of a random sample of reviews ("cold"
// reviews); derive trust from the remaining visible ratings only; predict
// each held-out rating with three predictors and report MAE:
//   global    — the global mean visible rating (non-personalized floor);
//   writer    — the mean visible rating across the writer's other reviews;
//   trust     — the rater's derived degree of trust in the writer,
//               T-hat(rater, writer), falling back to `writer` when 0.
#include <cstdio>
#include <unordered_set>

#include "wot/community/dataset_builder.h"
#include "wot/community/indices.h"
#include "wot/eval/calibration.h"
#include "wot/service/pipeline.h"
#include "wot/synth/generator.h"
#include "wot/util/check.h"
#include "wot/util/flags.h"
#include "wot/util/histogram.h"
#include "wot/util/rng.h"

int main(int argc, char** argv) {
  using namespace wot;

  int64_t users = 2000;
  int64_t seed = 42;
  double cold_fraction = 0.15;
  FlagParser flags("recommender",
                   "Cold-start review helpfulness prediction with the "
                   "derived web of trust");
  flags.AddInt64("users", &users, "synthetic community size");
  flags.AddInt64("seed", &seed, "generator seed");
  flags.AddDouble("cold_fraction", &cold_fraction,
                  "fraction of reviews whose ratings are held out");
  WOT_CHECK_OK(flags.Parse(argc, argv));
  WOT_CHECK(cold_fraction > 0.0 && cold_fraction < 1.0);

  SynthConfig config;
  config.seed = static_cast<uint64_t>(seed);
  config.num_users = static_cast<size_t>(users);
  SynthCommunity community = GenerateCommunity(config).ValueOrDie();
  const Dataset& full = community.dataset;

  // --- Choose cold reviews and rebuild the visible dataset -----------------
  Rng rng(static_cast<uint64_t>(seed) ^ 0xC01D);
  std::unordered_set<uint32_t> cold;
  for (const auto& review : full.reviews()) {
    if (rng.NextBool(cold_fraction)) {
      cold.insert(review.id.value());
    }
  }
  DatasetBuilder builder;
  for (const auto& category : full.categories()) {
    builder.AddCategory(category.name);
  }
  for (const auto& user : full.users()) {
    builder.AddUser(user.name);
  }
  for (const auto& object : full.objects()) {
    WOT_CHECK(builder.AddObject(object.category, object.name).ok());
  }
  for (const auto& review : full.reviews()) {
    WOT_CHECK(builder.AddReview(review.writer, review.object).ok());
  }
  size_t held_out = 0;
  for (const auto& rating : full.ratings()) {
    if (cold.count(rating.review.value()) != 0) {
      ++held_out;
      continue;
    }
    WOT_CHECK_OK(builder.AddRating(rating.rater, rating.review,
                                   rating.value));
  }
  Dataset visible = builder.Build().ValueOrDie();
  std::printf("cold reviews: %zu of %zu; held-out ratings: %zu\n",
              cold.size(), full.num_reviews(), held_out);

  // --- Derive trust from visible ratings only ------------------------------
  TrustPipeline pipeline = TrustPipeline::Run(visible).ValueOrDie();
  TrustDeriver deriver = pipeline.MakeDeriver();
  DatasetIndices visible_indices(visible);

  double global_sum = 0.0;
  for (const auto& rating : visible.ratings()) {
    global_sum += rating.value;
  }
  const double global_mean =
      visible.num_ratings() > 0
          ? global_sum / static_cast<double>(visible.num_ratings())
          : 0.6;

  // Mean visible rating received by each writer (over their warm reviews).
  std::vector<double> writer_sum(full.num_users(), 0.0);
  std::vector<size_t> writer_count(full.num_users(), 0);
  for (const auto& rating : visible.ratings()) {
    UserId writer = visible.review(rating.review).writer;
    writer_sum[writer.index()] += rating.value;
    ++writer_count[writer.index()];
  }
  auto writer_mean = [&](UserId writer) {
    return writer_count[writer.index()] > 0
               ? writer_sum[writer.index()] /
                     static_cast<double>(writer_count[writer.index()])
               : global_mean;
  };

  // --- Calibrate T-hat to the rating scale on VISIBLE data -----------------
  // T-hat carries the experience discount, so it sits systematically below
  // the rating scale; fit rating ~ a * T-hat + b by least squares over the
  // visible pairs (wot/eval/calibration.h; no held-out data touched).
  CalibrationFitter fitter;
  for (const auto& rating : visible.ratings()) {
    UserId writer = visible.review(rating.review).writer;
    double t = deriver.DeriveOne(rating.rater.index(), writer.index());
    if (t > 0.0) {
      fitter.Add(t, rating.value);
    }
  }
  LinearCalibration calibration;  // identity fallback
  if (Result<LinearCalibration> fit = fitter.Fit(); fit.ok()) {
    calibration = fit.ValueOrDie();
  }
  auto calibrated = [&](double t) {
    return calibration.ApplyClamped(t, 0.0, 1.0);
  };
  std::printf("calibration over %zu visible pairs: %s\n", fitter.count(),
              calibration.ToString().c_str());

  // --- Score the predictors on the held-out ratings ------------------------
  RunningStats err_global;
  RunningStats err_writer;
  RunningStats err_trust;
  RunningStats err_blend;
  for (const auto& rating : full.ratings()) {
    if (cold.count(rating.review.value()) == 0) {
      continue;
    }
    const auto& review = full.review(rating.review);
    double by_writer = writer_mean(review.writer);
    double trust = deriver.DeriveOne(rating.rater.index(),
                                     review.writer.index());
    double by_trust = trust > 0.0 ? calibrated(trust) : by_writer;
    double by_blend = 0.5 * by_trust + 0.5 * by_writer;
    err_global.Add(std::abs(global_mean - rating.value));
    err_writer.Add(std::abs(by_writer - rating.value));
    err_trust.Add(std::abs(by_trust - rating.value));
    err_blend.Add(std::abs(by_blend - rating.value));
  }

  std::printf("\nMAE on cold-review ratings (lower is better)\n");
  std::printf("  global mean                  : %.4f\n", err_global.mean());
  std::printf("  writer mean                  : %.4f\n", err_writer.mean());
  std::printf("  calibrated T-hat             : %.4f\n", err_trust.mean());
  std::printf("  blend (T-hat + writer mean)  : %.4f\n", err_blend.mean());
  double lift = (err_global.mean() - err_blend.mean()) /
                std::max(1e-12, err_global.mean());
  std::printf("blend improvement over the non-personalized floor: %.1f%%\n",
              100.0 * lift);
  std::printf(
      "\nreading: with zero ratings on a review, a community can only "
      "show the global average; the ratings-derived degrees of trust "
      "recover most of the writer-quality signal and combine with the "
      "writer's population average — without a single explicit trust "
      "statement.\n");
  return 0;
}
