// Fuzzed-request property: DispatchLine AND DispatchFrame are total —
// for BOTH Frontend implementations. Whatever bytes arrive — valid
// frames, mutated frames, truncations, hostile length prefixes, raw
// garbage, adversarial nesting — a ServiceFrontend and a 3-shard
// ShardRouter each answer every input with one decodable response frame
// (OK or a structured ApiStatus error) and never crash. Run under
// ASan/UBSan in CI, this doubles as a memory-safety fuzz of both codecs
// and of the router's resolve/route/scatter paths.
#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <string>
#include <type_traits>
#include <variant>
#include <vector>

#include "testing/fixtures.h"
#include "wot/api/binary_codec.h"
#include "wot/api/codec.h"
#include "wot/api/frontend.h"
#include "wot/api/shard_router.h"
#include "wot/service/trust_service.h"

namespace wot {
namespace api {
namespace {

class ApiFuzzTest : public ::testing::Test {
 protected:
  void SetUp() override {
    service_ = TrustService::Create(testing::TinyCommunity()).ValueOrDie();
    frontend_ = std::make_unique<ServiceFrontend>(service_.get());
    router_ =
        ShardRouter::Create(testing::TinyCommunity(), 3).ValueOrDie();
  }

  // The one assertion of this suite: ANY line yields a decodable frame,
  // from the single-service frontend and the shard router alike.
  void ExpectFramedReply(const std::string& line) {
    for (Frontend* target :
         {static_cast<Frontend*>(frontend_.get()),
          static_cast<Frontend*>(router_.get())}) {
      std::string reply = target->DispatchLine(line);
      Response response;
      ApiStatus decoded = DecodeResponse(reply, &response);
      ASSERT_TRUE(decoded.ok())
          << "unframed reply " << reply << " for line: " << line;
    }
  }

  // The binary twin: ANY byte string yields a decodable v2 error or
  // result frame from DispatchFrame — never a crash, never raw bytes.
  void ExpectFramedBinaryReply(const std::string& frame) {
    for (Frontend* target :
         {static_cast<Frontend*>(frontend_.get()),
          static_cast<Frontend*>(router_.get())}) {
      std::string reply = target->DispatchFrame(frame);
      Response response;
      ApiStatus decoded = DecodeResponseBinary(reply, &response);
      ASSERT_TRUE(decoded.ok())
          << "unframed binary reply (" << decoded.ToString()
          << ") for a frame of " << frame.size() << " bytes";
    }
  }

  std::unique_ptr<TrustService> service_;
  std::unique_ptr<ServiceFrontend> frontend_;
  std::unique_ptr<ShardRouter> router_;
};

// One populated request per RequestPayload alternative, filled through
// the method's field table: the n-th field gets "u<n>" (a TinyCommunity
// user name), n or 0.8. A new method is fuzzed without editing this file.
std::vector<Request> SeedRequests() {
  std::vector<Request> requests;
  for (size_t i = 0; i < std::variant_size_v<RequestPayload>; ++i) {
    Request request;
    request.id = static_cast<int64_t>(i) + 1;
    wire::EmplaceAlternative(request.payload, i, [](auto& params) {
      int n = 0;
      wire::ForEachField(params, [&n](const auto&, auto& value) {
        using V = std::remove_reference_t<decltype(value)>;
        if constexpr (std::is_same_v<V, std::string>) {
          value = "u" + std::to_string(n);
        } else if constexpr (std::is_same_v<V, double>) {
          value = 0.8;
        } else {
          value = static_cast<V>(n);
        }
        ++n;
      });
    });
    requests.push_back(std::move(request));
  }
  return requests;
}

// Valid frames to mutate: one per method.
std::vector<std::string> SeedFrames() {
  std::vector<std::string> frames;
  for (const Request& request : SeedRequests()) {
    frames.push_back(EncodeRequest(request));
  }
  return frames;
}

TEST_F(ApiFuzzTest, HandCraftedHostileLines) {
  const char* lines[] = {
      "",
      " ",
      "\t",
      "null",
      "0",
      "-0",
      "[]",
      "{}",
      "\"\"",
      "{\"v\":1}",
      "{\"v\":null,\"method\":\"stats\"}",
      "{\"v\":1.5,\"method\":\"stats\"}",
      "{\"v\":1,\"method\":null}",
      "{\"v\":1,\"method\":123}",
      "{\"v\":1,\"method\":\"stats\",\"params\":[]}",
      "{\"v\":1,\"method\":\"trust\",\"params\":{\"source\":1,\"target\":2}}",
      "{\"v\":1,\"method\":\"topk\",\"params\":{\"source\":\"u0\",\"k\":2.5}}",
      "{\"v\":1,\"method\":\"topk\",\"params\":{\"source\":\"u0\",\"k\":99999999999999999999}}",
      "{\"v\":1,\"method\":\"ingest_rating\",\"params\":{\"rater\":\"u3\",\"review\":-2,\"value\":0.8}}",
      "{\"v\":1,\"method\":\"ingest_review\",\"params\":{\"writer\":\"u0\",\"object\":4294967295}}",
      "{\"v\":1,\"method\":\"ingest_rating\",\"params\":{\"rater\":\"u1\",\"review\":0,\"value\":1e308}}",
      "{\"v\":-9223372036854775808,\"method\":\"stats\"}",
      "{\"v\":1,\"id\":9223372036854775807,\"method\":\"stats\"}",
      "{\"id\":1,\"method\":\"stats\"}",
      "{\"v\":\"1\",\"method\":\"stats\"}",
      "\xff\xfe\x00garbage",
      "{\"v\":1,\"method\":\"trust\",\"params\":{\"source\":\"u0\",\"target\":\"u1\"}",
      // Replication methods: no handler is attached to either frontend
      // here, so every well-formed frame must come back as a framed
      // UNIMPLEMENTED — and malformed params as framed INVALID_ARGUMENT.
      "{\"v\":1,\"method\":\"repl_fetch\",\"params\":{\"shard\":-1,\"applied_version\":0,\"offset\":0}}",
      "{\"v\":1,\"method\":\"repl_fetch\",\"params\":{\"shard\":\"zero\"}}",
      "{\"v\":1,\"method\":\"repl_fetch\",\"params\":{\"shard\":0,\"applied_version\":-3,\"offset\":99999999999999999999}}",
      "{\"v\":1,\"method\":\"repl_fetch\"}",
      "{\"v\":1,\"method\":\"repl_status\",\"params\":[]}",
      "{\"v\":1,\"method\":\"repl_promote\",\"params\":{\"force\":true}}",
  };
  for (const char* line : lines) {
    ExpectFramedReply(line);
  }
}

TEST_F(ApiFuzzTest, DeepNestingAndLongLinesAreRejectedNotFatal) {
  ExpectFramedReply(std::string(10000, '['));
  ExpectFramedReply("{\"v\":1,\"method\":\"stats\",\"params\":" +
                    std::string(5000, '{') + std::string(5000, '}') + "}");
  std::string long_name(1 << 16, 'x');
  ExpectFramedReply(
      "{\"v\":1,\"method\":\"trust\",\"params\":{\"source\":\"" +
      long_name + "\",\"target\":\"u0\"}}");
}

TEST_F(ApiFuzzTest, MutatedValidFramesAlwaysGetStructuredReplies) {
  std::mt19937_64 rng(20260729);
  std::vector<std::string> seeds = SeedFrames();
  std::uniform_int_distribution<int> byte(0, 255);
  for (int trial = 0; trial < 4000; ++trial) {
    std::string line = seeds[rng() % seeds.size()];
    switch (rng() % 5) {
      case 0:  // truncate
        line = line.substr(0, rng() % (line.size() + 1));
        break;
      case 1: {  // flip random bytes (avoiding '\n', which ends a frame)
        size_t flips = 1 + rng() % 8;
        for (size_t f = 0; f < flips && !line.empty(); ++f) {
          char b = static_cast<char>(byte(rng));
          if (b == '\n') b = ' ';
          line[rng() % line.size()] = b;
        }
        break;
      }
      case 2: {  // splice two frames
        const std::string& other = seeds[rng() % seeds.size()];
        line = line.substr(0, rng() % (line.size() + 1)) +
               other.substr(rng() % (other.size() + 1));
        break;
      }
      case 3: {  // duplicate a random chunk in the middle
        size_t begin = rng() % line.size();
        size_t len = rng() % (line.size() - begin + 1);
        line.insert(begin, line.substr(begin, len));
        break;
      }
      case 4:  // keep valid (the frontend must still answer in-frame)
        break;
    }
    ExpectFramedReply(line);
  }
}

TEST_F(ApiFuzzTest, PureRandomBytes) {
  std::mt19937_64 rng(42);
  std::uniform_int_distribution<int> byte(0, 255);
  std::uniform_int_distribution<int> length(0, 200);
  for (int trial = 0; trial < 2000; ++trial) {
    std::string line;
    int n = length(rng);
    for (int i = 0; i < n; ++i) {
      char b = static_cast<char>(byte(rng));
      line += (b == '\n') ? ' ' : b;
    }
    ExpectFramedReply(line);
  }
}

// ---------------------------------------------------------------------------
// Binary decoder fuzz.

// One valid binary frame per method, to mutate.
std::vector<std::string> SeedBinaryFrames() {
  std::vector<std::string> frames;
  for (const Request& request : SeedRequests()) {
    frames.push_back(EncodeRequestBinary(request));
  }
  return frames;
}

TEST_F(ApiFuzzTest, HandCraftedHostileBinaryFrames) {
  std::string valid = SeedBinaryFrames()[0];
  std::vector<std::string> frames = {
      "",                                  // empty
      std::string(1, '\xB2'),              // lone magic byte
      valid.substr(0, 4),                  // header torn mid-id
      valid.substr(0, 15),                 // one byte short of a header
      valid.substr(0, 16),                 // header only, payload gone
      valid + std::string(3, '\0'),        // trailing garbage
      std::string(16, '\0'),               // zeroed header (bad magic)
      "{\"v\":1,\"method\":\"stats\"}",    // NDJSON on the binary path
      std::string(200, '\xB2'),            // magic bytes all the way down
  };
  // Oversized length prefix: header claims 4 GiB of payload.
  std::string oversized = valid.substr(0, 16);
  for (size_t i = 12; i < 16; ++i) oversized[i] = '\xFF';
  frames.push_back(oversized);
  // Unknown framing version and unknown method code.
  std::string bad_version = valid;
  bad_version[1] = '\x7F';
  frames.push_back(bad_version);
  std::string bad_method = valid;
  bad_method[2] = '\xEE';
  frames.push_back(bad_method);
  for (const std::string& frame : frames) {
    ExpectFramedBinaryReply(frame);
  }
}

TEST_F(ApiFuzzTest, MutatedBinaryFramesAlwaysGetStructuredReplies) {
  std::mt19937_64 rng(20260808);
  std::vector<std::string> seeds = SeedBinaryFrames();
  std::uniform_int_distribution<int> byte(0, 255);
  for (int trial = 0; trial < 4000; ++trial) {
    std::string frame = seeds[rng() % seeds.size()];
    switch (rng() % 6) {
      case 0:  // truncate anywhere, header included
        frame = frame.substr(0, rng() % (frame.size() + 1));
        break;
      case 1: {  // flip random bytes (binary framing has no newline rule)
        size_t flips = 1 + rng() % 8;
        for (size_t f = 0; f < flips && !frame.empty(); ++f) {
          frame[rng() % frame.size()] = static_cast<char>(byte(rng));
        }
        break;
      }
      case 2: {  // corrupt the length prefix specifically
        frame[12 + rng() % 4] = static_cast<char>(byte(rng));
        break;
      }
      case 3: {  // splice two frames
        const std::string& other = seeds[rng() % seeds.size()];
        frame = frame.substr(0, rng() % (frame.size() + 1)) +
                other.substr(rng() % (other.size() + 1));
        break;
      }
      case 4: {  // append garbage payload bytes
        size_t extra = 1 + rng() % 32;
        for (size_t i = 0; i < extra; ++i) {
          frame += static_cast<char>(byte(rng));
        }
        break;
      }
      case 5:  // keep valid
        break;
    }
    ExpectFramedBinaryReply(frame);
  }
}

TEST_F(ApiFuzzTest, PureRandomBinaryBytes) {
  std::mt19937_64 rng(43);
  std::uniform_int_distribution<int> byte(0, 255);
  std::uniform_int_distribution<int> length(0, 200);
  for (int trial = 0; trial < 2000; ++trial) {
    std::string frame;
    int n = length(rng);
    for (int i = 0; i < n; ++i) {
      frame += static_cast<char>(byte(rng));
    }
    ExpectFramedBinaryReply(frame);
  }
}

}  // namespace
}  // namespace api
}  // namespace wot
