// Ablation: how much do the two Riggs-model ingredients matter?
//   (a) the experience discount 1 - 1/(n+1) in eq. 2 / eq. 3,
//   (b) reputation-weighted review quality (eq. 1) vs a plain mean.
// Measured by Advisor / Top-Reviewer recovery (Q1 share, as in Tables 2
// and 3) and by rank correlation between computed reputation and latent
// ground truth. The paper asserts both ingredients but never isolates
// them.
#include <cstdio>

#include "bench_util.h"
#include "wot/eval/quartile.h"
#include "wot/eval/rank_correlation.h"
#include "wot/service/pipeline.h"
#include "wot/util/check.h"
#include "wot/util/string_util.h"
#include "wot/util/table_printer.h"

namespace wot {
namespace {

struct Variant {
  const char* name;
  bool discount;
  bool weighting;
};

struct Outcome {
  double advisor_q1 = 0.0;
  double reviewer_q1 = 0.0;
  double writer_spearman = 0.0;  // expertise vs latent writer quality
};

Outcome Evaluate(const SynthCommunity& community,
                 const ReputationOptions& options) {
  PipelineOptions pipeline_options;
  pipeline_options.reputation = options;
  pipeline_options.compute_baseline = false;
  TrustPipeline pipeline =
      TrustPipeline::Run(community.dataset, pipeline_options).ValueOrDie();

  Outcome out;
  size_t advisor_total = 0;
  size_t advisor_q1 = 0;
  size_t reviewer_total = 0;
  size_t reviewer_q1 = 0;
  for (const auto& category : community.dataset.categories()) {
    std::vector<ScoredMember> raters;
    std::vector<ScoredMember> writers;
    for (size_t u = 0; u < community.dataset.num_users(); ++u) {
      double rater_rep =
          pipeline.rater_reputation().At(u, category.id.index());
      if (rater_rep > 0.0) {
        raters.push_back({UserId(static_cast<uint32_t>(u)), rater_rep});
      }
      double expertise = pipeline.expertise().At(u, category.id.index());
      if (expertise > 0.0) {
        writers.push_back({UserId(static_cast<uint32_t>(u)), expertise});
      }
    }
    QuartileReport ar = AnalyzeQuartiles(raters, community.truth.advisors);
    advisor_total += ar.designated;
    advisor_q1 += ar.counts[0];
    QuartileReport wr =
        AnalyzeQuartiles(writers, community.truth.top_reviewers);
    reviewer_total += wr.designated;
    reviewer_q1 += wr.counts[0];
  }
  if (advisor_total > 0) {
    out.advisor_q1 = static_cast<double>(advisor_q1) /
                     static_cast<double>(advisor_total);
  }
  if (reviewer_total > 0) {
    out.reviewer_q1 = static_cast<double>(reviewer_q1) /
                      static_cast<double>(reviewer_total);
  }

  // Spearman between a writer's best computed expertise and their latent
  // base quality, over users who write.
  std::vector<double> computed;
  std::vector<double> latent;
  for (size_t u = 0; u < community.dataset.num_users(); ++u) {
    double best = pipeline.expertise().RowMax(u);
    if (best > 0.0) {
      computed.push_back(best);
      latent.push_back(community.truth.profiles[u].writer_quality);
    }
  }
  out.writer_spearman = SpearmanRho(computed, latent);
  return out;
}

int Run(int argc, char** argv) {
  bench::ExperimentArgs args;
  FlagParser flags("ablation_discount",
                   "Ablation of the experience discount and the "
                   "rater-weighted quality aggregation");
  bench::RegisterCommonFlags(&flags, &args);
  WOT_CHECK_OK(flags.Parse(argc, argv));

  SynthCommunity community = bench::MakeCommunity(args);
  WOT_CHECK(!community.truth.advisors.empty())
      << "ablation requires planted designations";

  const Variant variants[] = {
      {"full model (paper)", true, true},
      {"no experience discount", false, true},
      {"no rater weighting", true, false},
      {"neither (plain averages)", false, false},
  };

  TablePrinter table({"Variant", "Advisors Q1 %", "TopRev Q1 %",
                      "writer Spearman"});
  for (const auto& variant : variants) {
    ReputationOptions options;
    options.use_experience_discount = variant.discount;
    options.use_rater_weighting = variant.weighting;
    Outcome outcome = Evaluate(community, options);
    table.AddRow({variant.name,
                  FormatDouble(100.0 * outcome.advisor_q1, 1),
                  FormatDouble(100.0 * outcome.reviewer_q1, 1),
                  FormatDouble(outcome.writer_spearman, 3)});
  }
  std::printf("\nAblation — Riggs model ingredients\n%s\n",
              table.ToString().c_str());
  std::printf(
      "reading: the discount trades recall of lightly-active designated "
      "users (it demotes anyone with few ratings/reviews in a category) "
      "against robustness to one-shot lucky users; on this synthetic "
      "workload the lucky-one-shot population is small, so disabling the "
      "discount *raises* Q1 recovery — evidence the ingredient is a "
      "robustness device, not an accuracy one. Rater weighting barely "
      "moves the writer ranking here because rating noise is symmetric "
      "around the true quality.\n");
  return 0;
}

}  // namespace
}  // namespace wot

int main(int argc, char** argv) { return wot::Run(argc, argv); }
