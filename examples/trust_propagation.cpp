// The paper's future-work experiment: build a web of trust twice — once
// from explicit trust statements, once derived from ratings — and compare
// how trust *propagates* through each (TidalTrust pairwise inference,
// EigenTrust global ranking).
//
//   ./build/examples/trust_propagation --users 2000 --pairs 1500
#include <cstdio>

#include "wot/core/binarization.h"
#include "wot/eval/rank_correlation.h"
#include "wot/linalg/vector_ops.h"
#include "wot/graph/appleseed.h"
#include "wot/graph/eigen_trust.h"
#include "wot/graph/guha_propagation.h"
#include "wot/graph/propagation_eval.h"
#include "wot/service/pipeline.h"
#include "wot/synth/generator.h"
#include "wot/util/check.h"
#include "wot/util/flags.h"
#include "wot/util/string_util.h"

int main(int argc, char** argv) {
  using namespace wot;

  int64_t users = 2000;
  int64_t seed = 42;
  int64_t pairs = 1500;
  FlagParser flags("trust_propagation",
                   "Compares propagation over the explicit vs the derived "
                   "web of trust (the paper's stated future work)");
  flags.AddInt64("users", &users, "synthetic community size");
  flags.AddInt64("seed", &seed, "generator seed");
  flags.AddInt64("pairs", &pairs, "sampled source/sink pairs");
  WOT_CHECK_OK(flags.Parse(argc, argv));

  SynthConfig config;
  config.seed = static_cast<uint64_t>(seed);
  config.num_users = static_cast<size_t>(users);
  SynthCommunity community = GenerateCommunity(config).ValueOrDie();
  TrustPipeline pipeline =
      TrustPipeline::Run(community.dataset).ValueOrDie();

  // Web 1: the explicit trust statements, as crawled.
  TrustGraph explicit_web =
      TrustGraph::FromMatrix(pipeline.explicit_trust());

  // Web 2: derived from ratings only. Edge *pattern* comes from the
  // paper's generosity-matched binarization; edge *weights* keep the
  // continuous degrees of trust — the paper's key output ("a denser trust
  // matrix with a continuous trust value").
  BinarizationOptions options;
  options.policy = BinarizationPolicy::kPerUserQuantile;
  options.per_user_fraction = ComputeTrustGenerosity(
      pipeline.direct_connections(), pipeline.explicit_trust());
  TrustDeriver deriver = pipeline.MakeDeriver();
  SparseMatrix derived_pattern =
      BinarizeDerivedTrust(deriver, options).ValueOrDie();
  TrustGraph derived_web =
      TrustGraph::FromMatrix(deriver.DeriveForPairs(derived_pattern));

  std::printf("explicit web: %zu edges (density %.5f)\n",
              explicit_web.num_edges(), explicit_web.Density());
  std::printf("derived web:  %zu edges (density %.5f)\n\n",
              derived_web.num_edges(), derived_web.Density());

  // --- Pairwise propagation (TidalTrust) ----------------------------------
  PropagationEvalOptions eval_options;
  eval_options.num_pairs = static_cast<size_t>(pairs);
  eval_options.seed = static_cast<uint64_t>(seed) + 1;
  PropagationComparison cmp =
      ComparePropagation(explicit_web, derived_web, eval_options)
          .ValueOrDie();
  std::printf("=== TidalTrust propagation ===\n%s\n",
              cmp.ToString("explicit web", "derived web").c_str());

  // --- Global ranking (EigenTrust) -----------------------------------------
  EigenTrustResult explicit_rank = EigenTrust(explicit_web).ValueOrDie();
  EigenTrustResult derived_rank = EigenTrust(derived_web).ValueOrDie();
  double rho = SpearmanRho(explicit_rank.trust, derived_rank.trust);
  std::printf("=== EigenTrust global ranking ===\n");
  std::printf("explicit web: converged in %zu iterations\n",
              explicit_rank.iterations);
  std::printf("derived web:  converged in %zu iterations\n",
              derived_rank.iterations);
  std::printf("Spearman correlation between the two rankings: %.3f\n", rho);

  // --- Guha-style operator propagation over the derived web ---------------
  GuhaResult guha =
      PropagateGuha(deriver.DeriveForPairs(derived_pattern)).ValueOrDie();
  std::printf("\n=== Guha operator propagation (derived web) ===\n");
  std::printf("input beliefs: %zu, after 3 steps: %zu "
              "(operator nnz %zu)\n",
              derived_pattern.nnz(), guha.beliefs.nnz(),
              guha.operator_nnz);

  // --- Appleseed spreading activation from one power user -----------------
  size_t power_user = ArgMax(derived_rank.trust);
  AppleseedResult activation =
      Appleseed(derived_web, power_user).ValueOrDie();
  std::printf("\n=== Appleseed from the top-ranked user (%zu) ===\n",
              power_user);
  std::printf("converged in %zu iterations; %zu users activated; top-3:",
              activation.iterations, activation.Ranking().size());
  auto ranking = activation.Ranking();
  for (size_t i = 0; i < std::min<size_t>(3, ranking.size()); ++i) {
    std::printf(" user%u(%.2f)", ranking[i], activation.trust[ranking[i]]);
  }
  std::printf("\n");

  std::printf(
      "\nreading: over the *binary* explicit web TidalTrust degenerates "
      "to all-1.0 predictions (every edge has weight 1), while the "
      "derived web carries continuous degrees of trust and yields graded "
      "inferences; the EigenTrust rankings of the two webs correlate "
      "strongly — a ratings-derived web can stand in when no explicit "
      "web exists.\n");
  return 0;
}
