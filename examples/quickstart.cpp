// Quickstart: build a six-user community by hand, derive a web of trust
// from its ratings alone, and inspect the result.
//
//   ./build/examples/quickstart
//
// Walks through the full public API surface in ~100 lines: DatasetBuilder
// -> TrustPipeline -> TrustDeriver.
#include <cstdio>

#include "wot/community/dataset_builder.h"
#include "wot/service/pipeline.h"
#include "wot/util/check.h"

int main() {
  using namespace wot;

  // --- 1. Describe the community -----------------------------------------
  DatasetBuilder builder;
  CategoryId movies = builder.AddCategory("movies");
  CategoryId books = builder.AddCategory("books");

  UserId alice = builder.AddUser("alice");  // movie expert
  UserId bob = builder.AddUser("bob");      // casual writer
  UserId carol = builder.AddUser("carol");  // book expert
  UserId dave = builder.AddUser("dave");    // reads movie reviews
  UserId erin = builder.AddUser("erin");    // reads book reviews
  UserId frank = builder.AddUser("frank");  // reads everything

  auto add_review = [&](UserId writer, CategoryId category,
                        const char* object) {
    ObjectId oid = builder.AddObject(category, object).ValueOrDie();
    return builder.AddReview(writer, oid).ValueOrDie();
  };
  // Alice writes consistently helpful movie reviews.
  ReviewId a1 = add_review(alice, movies, "movies/heat");
  ReviewId a2 = add_review(alice, movies, "movies/alien");
  // Bob's movie review is mediocre.
  ReviewId b1 = add_review(bob, movies, "movies/plan9");
  // Carol writes great book reviews.
  ReviewId c1 = add_review(carol, books, "books/dune");
  ReviewId c2 = add_review(carol, books, "books/hyperion");

  // Ratings on the five-stage Epinions scale {0.2, 0.4, 0.6, 0.8, 1.0}.
  WOT_CHECK_OK(builder.AddRating(dave, a1, 1.0));
  WOT_CHECK_OK(builder.AddRating(dave, a2, 0.8));
  WOT_CHECK_OK(builder.AddRating(dave, b1, 0.4));
  WOT_CHECK_OK(builder.AddRating(frank, a1, 1.0));
  WOT_CHECK_OK(builder.AddRating(frank, b1, 0.2));
  WOT_CHECK_OK(builder.AddRating(frank, c1, 0.8));
  WOT_CHECK_OK(builder.AddRating(erin, c1, 1.0));
  WOT_CHECK_OK(builder.AddRating(erin, c2, 0.8));

  Dataset dataset = builder.Build().ValueOrDie();
  std::printf("community: %s\n\n", dataset.Summary().c_str());

  // --- 2. Run the framework (Steps 1-3 of the paper) ---------------------
  TrustPipeline pipeline = TrustPipeline::Run(dataset).ValueOrDie();

  std::printf("expertise E (users x categories):\n%s\n",
              pipeline.expertise().ToString().c_str());
  std::printf("affiliation A (users x categories):\n%s\n",
              pipeline.affiliation().ToString().c_str());

  // --- 3. Ask for degrees of trust (eq. 5) --------------------------------
  TrustDeriver deriver = pipeline.MakeDeriver();
  struct Pair {
    const char* label;
    UserId from;
    UserId to;
  };
  const Pair pairs[] = {
      {"dave  -> alice (movie fan -> movie expert)", dave, alice},
      {"dave  -> bob   (movie fan -> weak writer) ", dave, bob},
      {"dave  -> carol (movie fan -> book expert) ", dave, carol},
      {"erin  -> carol (book fan  -> book expert) ", erin, carol},
      {"frank -> alice (omnivore  -> movie expert)", frank, alice},
      {"frank -> carol (omnivore  -> book expert) ", frank, carol},
  };
  std::printf("derived degrees of trust:\n");
  for (const auto& pair : pairs) {
    std::printf("  %s  T-hat = %.3f\n", pair.label,
                deriver.DeriveOne(pair.from.index(), pair.to.index()));
  }

  // Dave never rated carol's reviews, and there is no explicit web of
  // trust anywhere — yet the framework still produces graded scores.
  std::printf(
      "\nnote: every score above was derived from ratings only; no "
      "explicit trust statement exists in this community.\n");
  return 0;
}
