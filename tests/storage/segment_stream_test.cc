// The streamed segment writer against the reference two-buffer encoder
// (tests/testing/reference_segment.h): the file on disk must be the same
// bytes for communities small and large (the large one passes the
// writer's 1 MiB staging buffer many times), with and without postings,
// with trust statements, with empty and multi-byte names, and with no
// reviews or no ratings. A write that fails part way must leave nothing
// behind.
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <filesystem>
#include <memory>
#include <string>
#include <utility>

#include "gtest/gtest.h"
#include "storage/storage_test_util.h"
#include "testing/fixtures.h"
#include "testing/reference_segment.h"
#include "wot/community/dataset_builder.h"
#include "wot/service/trust_service.h"
#include "wot/storage/segment.h"
#include "wot/synth/generator.h"

namespace wot {
namespace storage {
namespace {

using storage::testing::FreshDir;
using storage::testing::Slurp;
using wot::testing::ReferenceSegmentBytes;

Dataset Synth(size_t users) {
  SynthConfig config;
  config.seed = 7;
  config.num_users = users;
  return GenerateCommunity(config).ValueOrDie().dataset;
}

std::unique_ptr<TrustService> Serve(Dataset dataset,
                                    TrustServiceOptions options = {}) {
  return TrustService::Create(std::move(dataset), options).ValueOrDie();
}

// Writes the service's current snapshot and returns the file's bytes,
// after checking them against the reference encoder and a reload.
std::string ExpectStreamedMatchesReference(const std::string& name,
                                           const TrustService& service) {
  const std::string path = FreshDir(name) + "/segment-1.seg";
  std::shared_ptr<const TrustSnapshot> snapshot = service.Snapshot();
  const Dataset& staged = service.staged_dataset();
  Status written = WriteSegment(path, *snapshot, staged);
  EXPECT_TRUE(written.ok()) << written.ToString();
  if (!written.ok()) return "";
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));

  const std::string expected = ReferenceSegmentBytes(*snapshot, staged);
  const std::string actual = Slurp(path);
  EXPECT_EQ(actual.size(), expected.size());
  if (actual != expected) {
    size_t first = 0;
    while (first < actual.size() && first < expected.size() &&
           actual[first] == expected[first]) {
      ++first;
    }
    ADD_FAILURE() << name << ": streamed segment differs from the "
                  << "reference first at byte " << first << " of "
                  << expected.size();
  }
  Result<SegmentData> loaded = LoadSegment(path);
  EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
  return actual;
}

TEST(SegmentStreamTest, SynthCommunitiesAtThreeSizesMatchReference) {
  for (size_t users : {size_t{40}, size_t{300}, size_t{2500}}) {
    std::unique_ptr<TrustService> service = Serve(Synth(users));
    ASSERT_GT(service->staged_dataset().num_trust_statements(), 0u);
    const std::string bytes = ExpectStreamedMatchesReference(
        "stream_synth_" + std::to_string(users), *service);
    if (users == 2500) {
      // The case must cross the 1 MiB staging buffer many times.
      EXPECT_GT(bytes.size(), size_t{4} << 20);
    }
  }
}

TEST(SegmentStreamTest, PostingsOnAndOffMatchReference) {
  for (bool postings : {true, false}) {
    TrustServiceOptions options;
    options.build_postings = postings;
    std::unique_ptr<TrustService> service = Serve(Synth(300), options);
    ASSERT_EQ(service->Snapshot()->deriver().postings().empty(), !postings);
    ExpectStreamedMatchesReference(
        postings ? "stream_postings_on" : "stream_postings_off", *service);
  }
}

TEST(SegmentStreamTest, CommittedSnapshotMatchesReference) {
  std::unique_ptr<TrustService> service = Serve(Synth(300));
  const UserId user = service->AddUser("nouvelle utilisatrice é");
  const CategoryId category = service->AddCategory("κατηγορία");
  const ObjectId object =
      service->AddObject(category, "オブジェクト").ValueOrDie();
  const ReviewId review = service->AddReview(user, object).ValueOrDie();
  ASSERT_TRUE(service->AddRating(UserId(0), review, 1.0).ok());
  ASSERT_TRUE(service->Commit().ok());
  ASSERT_EQ(service->Snapshot()->version(), 2u);
  ExpectStreamedMatchesReference("stream_committed", *service);
}

TEST(SegmentStreamTest, EmptyAndMultiByteNamesMatchReference) {
  DatasetBuilder builder;
  CategoryId empty_category = builder.AddCategory("");
  CategoryId wide_category = builder.AddCategory("Drámas 🎬");
  UserId a = builder.AddUser("");
  UserId b = builder.AddUser("Zoë");
  UserId c = builder.AddUser("用户");
  ObjectId o0 = builder.AddObject(empty_category, "").ValueOrDie();
  ObjectId o1 = builder.AddObject(wide_category, "Amélie").ValueOrDie();
  ReviewId r0 = builder.AddReview(a, o0).ValueOrDie();
  ReviewId r1 = builder.AddReview(b, o1).ValueOrDie();
  ASSERT_TRUE(builder.AddRating(c, r0, 1.0).ok());
  ASSERT_TRUE(builder.AddRating(c, r1, 0.6).ok());
  ASSERT_TRUE(builder.AddTrust(c, b).ok());
  ExpectStreamedMatchesReference("stream_names",
                                 *Serve(builder.Build().ValueOrDie()));
}

TEST(SegmentStreamTest, NoReviewsOrNoRatingsMatchReference) {
  DatasetBuilder no_reviews;
  CategoryId category = no_reviews.AddCategory("movies");
  no_reviews.AddUser("u0");
  no_reviews.AddUser("u1");
  ASSERT_TRUE(no_reviews.AddObject(category, "m0").ok());
  ExpectStreamedMatchesReference("stream_no_reviews",
                                 *Serve(no_reviews.Build().ValueOrDie()));

  DatasetBuilder no_ratings;
  category = no_ratings.AddCategory("movies");
  UserId writer = no_ratings.AddUser("u0");
  no_ratings.AddUser("u1");
  ObjectId object = no_ratings.AddObject(category, "m0").ValueOrDie();
  ASSERT_TRUE(no_ratings.AddReview(writer, object).ok());
  ExpectStreamedMatchesReference("stream_no_ratings",
                                 *Serve(no_ratings.Build().ValueOrDie()));
}

// A file size limit below the segment's size makes a write fail part way
// (EFBIG once SIGXFSZ is ignored). It runs in a forked child so the limit
// binds that process only; the child reports the status through its exit
// code.
TEST(SegmentStreamTest, WriteFailingPartWayLeavesNoFile) {
  std::unique_ptr<TrustService> service = Serve(Synth(300));
  std::shared_ptr<const TrustSnapshot> snapshot = service->Snapshot();
  const Dataset& staged = service->staged_dataset();
  constexpr rlim_t kLimit = 256 * 1024;
  ASSERT_GT(ReferenceSegmentBytes(*snapshot, staged).size(), kLimit);
  const std::string dir = FreshDir("stream_fsize");
  const std::string path = dir + "/segment-1.seg";

  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    ::signal(SIGXFSZ, SIG_IGN);
    const struct rlimit limit = {kLimit, kLimit};
    if (::setrlimit(RLIMIT_FSIZE, &limit) != 0) ::_exit(10);
    Status status = WriteSegment(path, *snapshot, staged);
    if (status.ok()) ::_exit(11);
    ::_exit(status.code() == StatusCode::kIOError ? 0 : 12);
  }
  int wait_status = 0;
  ASSERT_EQ(::waitpid(child, &wait_status, 0), child);
  ASSERT_TRUE(WIFEXITED(wait_status));
  EXPECT_EQ(WEXITSTATUS(wait_status), 0)
      << "10: setrlimit failed, 11: the write succeeded, 12: not IOError";
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

}  // namespace
}  // namespace storage
}  // namespace wot
