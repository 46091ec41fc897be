// Reproduces **Table 2** — "The performance of review raters' reputation
// model": per sub-category, rank all raters by their eq.-2 reputation,
// split into quartiles, and count where the designated Advisors land.
// Paper result: 244/248 = 98.4% of Advisors in Q1 overall.
#include <cstdio>

#include "bench_util.h"
#include "wot/eval/quartile.h"
#include "wot/service/pipeline.h"
#include "wot/util/check.h"
#include "wot/util/string_util.h"
#include "wot/util/stopwatch.h"
#include "wot/util/table_printer.h"

namespace wot {
namespace {

int Run(int argc, char** argv) {
  bench::ExperimentArgs args;
  FlagParser flags("table2_rater_reputation",
                   "Reproduces Table 2: Advisors' quartile placement under "
                   "the rater reputation model (eq. 2)");
  bench::RegisterCommonFlags(&flags, &args);
  WOT_CHECK_OK(flags.Parse(argc, argv));

  SynthCommunity community = bench::MakeCommunity(args);
  if (community.truth.advisors.empty()) {
    std::printf(
        "no Advisor ground truth available (external dataset?); Table 2 "
        "requires planted designations\n");
    return 1;
  }

  Stopwatch timer;
  TrustPipeline pipeline =
      TrustPipeline::Run(community.dataset).ValueOrDie();
  std::printf("pipeline: %.1f ms\n\n", timer.ElapsedMillis());

  TablePrinter table({"Genre (Category)", "Rater", "Advisors", "Q1(Top)",
                      "Q2", "Q3", "Q4", "Q1 %"});
  size_t designated_total = 0;
  std::array<size_t, 4> totals = {0, 0, 0, 0};

  for (const auto& category : community.dataset.categories()) {
    std::vector<ScoredMember> raters;
    for (size_t u = 0; u < community.dataset.num_users(); ++u) {
      double rep = pipeline.rater_reputation().At(u, category.id.index());
      if (rep > 0.0) {
        raters.push_back({UserId(static_cast<uint32_t>(u)), rep});
      }
    }
    QuartileReport report =
        AnalyzeQuartiles(raters, community.truth.advisors);
    designated_total += report.designated;
    for (size_t q = 0; q < 4; ++q) {
      totals[q] += report.counts[q];
    }
    table.AddRow({category.name, std::to_string(report.population),
                  std::to_string(report.designated),
                  std::to_string(report.counts[0]),
                  std::to_string(report.counts[1]),
                  std::to_string(report.counts[2]),
                  std::to_string(report.counts[3]),
                  FormatDouble(100.0 * report.TopQuartileShare(), 1)});
  }
  table.AddSeparator();
  double overall = designated_total == 0
                       ? 0.0
                       : 100.0 * static_cast<double>(totals[0]) /
                             static_cast<double>(designated_total);
  table.AddRow({"Overall", "", std::to_string(designated_total),
                std::to_string(totals[0]), std::to_string(totals[1]),
                std::to_string(totals[2]), std::to_string(totals[3]),
                FormatDouble(overall, 1)});

  std::printf("Table 2 — review raters' reputation model\n%s\n",
              table.ToString().c_str());
  std::printf("paper reference: 98.4%% of Advisors in Q1 overall\n");
  return 0;
}

}  // namespace
}  // namespace wot

int main(int argc, char** argv) { return wot::Run(argc, argv); }
