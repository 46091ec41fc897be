// Wire goldens: the exact NDJSON line and the exact v2 binary frame of
// every RequestPayload and ResponsePayload alternative, plus the
// wire-visible request-decode error replies of both framings.
//
// Round-trip tests cannot see a change that is the same on both sides (a
// field order swapped in encoder and decoder alike); these bytes can. A
// failure here is a wire-format change: every deployed client and replica
// speaks these bytes.
//
// Binary frames are spelled in hex. The first three groups are the header
// (magic, framing version, method/status code, reserved/result type; the
// little-endian id; the payload length); the rest is the payload. Spaces
// carry no meaning.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "testing/fixtures.h"
#include "wot/api/binary_codec.h"
#include "wot/api/codec.h"
#include "wot/api/frontend.h"
#include "wot/service/trust_service.h"

namespace wot {
namespace api {
namespace {

constexpr int64_t kInt64Min = std::numeric_limits<int64_t>::min();

std::string Unhex(std::string_view hex) {
  auto nibble = [](char c) { return c <= '9' ? c - '0' : c - 'a' + 10; };
  std::string bytes;
  for (size_t i = 0; i < hex.size();) {
    if (hex[i] == ' ') {
      ++i;
      continue;
    }
    bytes.push_back(static_cast<char>(nibble(hex[i]) * 16 + nibble(hex[i + 1])));
    i += 2;
  }
  return bytes;
}

std::string Hex(std::string_view bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string hex;
  for (unsigned char b : bytes) {
    hex.push_back(kDigits[b >> 4]);
    hex.push_back(kDigits[b & 0xF]);
  }
  return hex;
}

// Bytes 0x00..0xFF in order: the replication payload that must survive
// both framings (hex on NDJSON, raw on binary).
std::string AllBytes() {
  std::string bytes;
  for (int b = 0; b < 256; ++b) bytes.push_back(static_cast<char>(b));
  return bytes;
}

Request MakeRequest(RequestPayload payload, int64_t id) {
  Request request;
  request.id = id;
  request.payload = std::move(payload);
  return request;
}

Response MakeResponse(ResponsePayload payload, int64_t id) {
  Response response;
  response.id = id;
  response.payload = std::move(payload);
  return response;
}

struct RequestGolden {
  const char* label;
  Request request;
  std::string ndjson;
  std::string binary_hex;
};

struct ResponseGolden {
  const char* label;
  Response response;
  std::string ndjson;
  std::string binary_hex;
};

std::vector<RequestGolden> RequestGoldens() {
  return {
    {"trust", MakeRequest(TrustQuery{"alice", "bob"}, 1),
     R"({"v":1,"id":1,"method":"trust","params":{"source":"alice","target":"bob"}})",
     "b2020000 0100000000000000 10000000"
     " 05000000616c69636503000000626f62"},
    {"trust_multibyte_and_empty", MakeRequest(TrustQuery{"Zo\303\253 \346\235\261\344\272\254", ""}, 2),
     "{\"v\":1,\"id\":2,\"method\":\"trust\",\"params\":{\"source\":\"Zo\303\253 \346\235\261\344\272\254\",\"target\":\"\"}}",
     "b2020000 0200000000000000 13000000"
     " 0b0000005a6fc3ab20e69db1e4baac00000000"},
    {"topk", MakeRequest(TopKQuery{"alice", 12}, 3),
     R"({"v":1,"id":3,"method":"topk","params":{"source":"alice","k":12}})",
     "b2020100 0300000000000000 11000000"
     " 05000000616c6963650c00000000000000"},
    {"topk_negative", MakeRequest(TopKQuery{"7", kInt64Min}, -4),
     R"({"v":1,"id":-4,"method":"topk","params":{"source":"7","k":-9223372036854775808}})",
     "b2020100 fcffffffffffffff 0d000000"
     " 01000000370000000000000080"},
    {"explain", MakeRequest(ExplainQuery{"7", "nina"}, 5),
     R"({"v":1,"id":5,"method":"explain","params":{"source":"7","target":"nina"}})",
     "b2020200 0500000000000000 0d000000"
     " 0100000037040000006e696e61"},
    {"ingest_user_escapes", MakeRequest(IngestUser{"tab\there \"q\" \\ \001"}, 6),
     R"({"v":1,"id":6,"method":"ingest_user","params":{"name":"tab\there \"q\" \\ \u0001"}})",
     "b2020300 0600000000000000 14000000"
     " 10000000746162096865726520227122205c2001"},
    {"ingest_category", MakeRequest(IngestCategory{"movies"}, 7),
     R"({"v":1,"id":7,"method":"ingest_category","params":{"name":"movies"}})",
     "b2020400 0700000000000000 0a000000"
     " 060000006d6f76696573"},
    {"ingest_object", MakeRequest(IngestObject{"movies", "heat"}, 8),
     R"({"v":1,"id":8,"method":"ingest_object","params":{"category":"movies","name":"heat"}})",
     "b2020500 0800000000000000 12000000"
     " 060000006d6f766965730400000068656174"},
    {"ingest_review", MakeRequest(IngestReview{"carol", -1}, 9),
     R"({"v":1,"id":9,"method":"ingest_review","params":{"writer":"carol","object":-1}})",
     "b2020600 0900000000000000 11000000"
     " 050000006361726f6cffffffffffffffff"},
    {"ingest_rating", MakeRequest(IngestRating{"carol", 9, 0.1}, 10),
     R"({"v":1,"id":10,"method":"ingest_rating","params":{"rater":"carol","review":9,"value":0.1}})",
     "b2020700 0a00000000000000 19000000"
     " 050000006361726f6c09000000000000009a9999999999b93f"},
    {"ingest_rating_negative", MakeRequest(IngestRating{"", -2, -1e300}, 11),
     R"({"v":1,"id":11,"method":"ingest_rating","params":{"rater":"","review":-2,"value":-1e+300}})",
     "b2020700 0b00000000000000 14000000"
     " 00000000feffffffffffffff9c7500883ce437fe"},
    {"commit", MakeRequest(CommitRequest{}, 12),
     R"({"v":1,"id":12,"method":"commit","params":{}})",
     "b2020800 0c00000000000000 00000000"},
    {"stats", MakeRequest(StatsRequest{}, 13),
     R"({"v":1,"id":13,"method":"stats","params":{}})",
     "b2020900 0d00000000000000 00000000"},
    {"metrics", MakeRequest(MetricsRequest{}, 14),
     R"({"v":1,"id":14,"method":"metrics","params":{}})",
     "b2020a00 0e00000000000000 00000000"},
    {"repl_fetch", MakeRequest(ReplFetchRequest{3, 9007199254740994ULL, 1152921504606846976ULL}, 15),
     R"({"v":1,"id":15,"method":"repl_fetch","params":{"shard":3,"applied_version":9007199254740994,"offset":1152921504606846976}})",
     "b2020b00 0f00000000000000 18000000"
     " 030000000000000002000000000020000000000000000010"},
    {"repl_fetch_defaults", MakeRequest(ReplFetchRequest{}, 16),
     R"({"v":1,"id":16,"method":"repl_fetch","params":{"shard":0,"applied_version":0,"offset":0}})",
     "b2020b00 1000000000000000 18000000"
     " 000000000000000000000000000000000000000000000000"},
    {"repl_status", MakeRequest(ReplStatusRequest{}, 17),
     R"({"v":1,"id":17,"method":"repl_status","params":{}})",
     "b2020c00 1100000000000000 00000000"},
    {"repl_promote", MakeRequest(ReplPromoteRequest{}, 9007199254740992),
     R"({"v":1,"id":9007199254740992,"method":"repl_promote","params":{}})",
     "b2020d00 0000000000002000 00000000"},
  };
}

std::vector<ResponseGolden> ResponseGoldens() {
  return {
    {"bare_ok", MakeResponse(std::monostate{}, 0),
     R"({"v":1,"id":0,"status":"OK"})",
     "b2020000 0000000000000000 00000000"},
    {"trust", MakeResponse(TrustResult{0.5, "alice", "bob", 3}, 1),
     R"({"v":1,"id":1,"status":"OK","result_type":"trust","result":{"trust":0.5,"source_name":"alice","target_name":"bob","snapshot_version":3}})",
     "b2020001 0100000000000000 20000000"
     " 000000000000e03f05000000616c69636503000000626f620300000000000000"},
    {"topk_empty", MakeResponse(TopKResult{"alice", {}, 6}, 2),
     R"({"v":1,"id":2,"status":"OK","result_type":"topk","result":{"source_name":"alice","trustees":[],"snapshot_version":6}})",
     "b2020002 0200000000000000 15000000"
     " 05000000616c696365000000000600000000000000"},
    {"topk", MakeResponse(TopKResult{"alice", {{4, "dave", 0.9}, {4294967295u, "\346\235\261\344\272\254", -0.25}}, 9007199254740994ULL}, 3),
     "{\"v\":1,\"id\":3,\"status\":\"OK\",\"result_type\":\"topk\",\"result\":{\"source_name\":\"alice\",\"trustees\":[{\"user\":4,\"name\":\"dave\",\"score\":0.9},{\"user\":4294967295,\"name\":\"\346\235\261\344\272\254\",\"score\":-0.25}],\"snapshot_version\":9007199254740994}}",
     "b2020002 0300000000000000 3f000000"
     " 05000000616c69636502000000040000000400000064617665cdccccccccccec"
     " 3fffffffff06000000e69db1e4baac000000000000d0bf0200000000002000"},
    {"explain", MakeResponse(ExplainResult{0.5, 1.5, "alice", "bob", {{2, "movies", 0.4, 0.6, 0.24}, {0, "", 1e-300, -2.5, 0.0}}, 6}, 4),
     R"({"v":1,"id":4,"status":"OK","result_type":"explain","result":{"trust":0.5,"affinity_sum":1.5,"source_name":"alice","target_name":"bob","terms":[{"category":2,"category_name":"movies","affiliation":0.4,"expertise":0.6,"contribution":0.24},{"category":0,"category_name":"","affiliation":1e-300,"expertise":-2.5,"contribution":0}],"snapshot_version":6}})",
     "b2020003 0400000000000000 72000000"
     " 000000000000e03f000000000000f83f05000000616c69636503000000626f62"
     " 0200000002000000060000006d6f766965739a9999999999d93f333333333333"
     " e33fb81e85eb51b8ce3f000000000000000059f3f8c21f6ea501000000000000"
     " 04c000000000000000000600000000000000"},
    {"explain_no_terms", MakeResponse(ExplainResult{0.0, 0.0, "u0", "u1", {}, 1}, 5),
     R"({"v":1,"id":5,"status":"OK","result_type":"explain","result":{"trust":0,"affinity_sum":0,"source_name":"u0","target_name":"u1","terms":[],"snapshot_version":1}})",
     "b2020003 0500000000000000 28000000"
     " 0000000000000000000000000000000002000000753002000000753100000000"
     " 0100000000000000"},
    {"ingest", MakeResponse(IngestResult{42}, 6),
     R"({"v":1,"id":6,"status":"OK","result_type":"ingest","result":{"assigned_id":42}})",
     "b2020004 0600000000000000 08000000"
     " 2a00000000000000"},
    {"ingest_rating", MakeResponse(IngestResult{-1}, 7),
     R"({"v":1,"id":7,"status":"OK","result_type":"ingest","result":{"assigned_id":-1}})",
     "b2020004 0700000000000000 08000000"
     " ffffffffffffffff"},
    {"commit_published", MakeResponse(CommitResult{7, true, 3, 120, 2}, 8),
     R"({"v":1,"id":8,"status":"OK","result_type":"commit","result":{"snapshot_version":7,"published":true,"categories_recomputed":3,"affiliation_rows_recomputed":120,"postings_rebuilt":2}})",
     "b2020005 0800000000000000 21000000"
     " 0700000000000000010300000000000000780000000000000002000000000000"
     " 00"},
    {"commit_unpublished", MakeResponse(CommitResult{0, false, 0, 0, 0}, 9),
     R"({"v":1,"id":9,"status":"OK","result_type":"commit","result":{"snapshot_version":0,"published":false,"categories_recomputed":0,"affiliation_rows_recomputed":0,"postings_rebuilt":0}})",
     "b2020005 0900000000000000 21000000"
     " 0000000000000000000000000000000000000000000000000000000000000000"
     " 00"},
    {"stats", MakeResponse(StatsResult{.snapshot_version = 2, .users = 5, .categories = 2,
                                 .reviews = 3, .ratings = 4, .service_boots = 1,
                                 .requests_served = 5, .connections_active = 3,
                                 .connections_accepted = 9,
                                 .connection_requests_served = 5,
                                 .shard_service_boots = {},
                                 .shard_requests_served = {}}, 10),
     R"({"v":1,"id":10,"status":"OK","result_type":"stats","result":{"snapshot_version":2,"users":5,"categories":2,"reviews":3,"ratings":4,"service_boots":1,"requests_served":5,"connections_active":3,"connections_accepted":9,"connection_requests_served":5}})",
     "b2020006 0a00000000000000 88000000"
     " 0200000000000000050000000000000002000000000000000300000000000000"
     " 0400000000000000010000000000000005000000000000000300000000000000"
     " 0900000000000000050000000000000000000000000000000000000000000000"
     " 0000000000000000000000000000000000000000000000000000000000000000"
     " 0000000000000000"},
    {"stats_sharded", MakeResponse(StatsResult{.snapshot_version = 4, .users = 10, .categories = 2,
                                 .reviews = 6, .ratings = 8, .service_boots = 3,
                                 .requests_served = 12, .connections_active = 1,
                                 .connections_accepted = 1,
                                 .connection_requests_served = 12, .shards = 3,
                                 .shard_service_boots = {1, 1, 1},
                                 .shard_requests_served = {10, 0, 7}}, 11),
     R"({"v":1,"id":11,"status":"OK","result_type":"stats","result":{"snapshot_version":4,"users":10,"categories":2,"reviews":6,"ratings":8,"service_boots":3,"requests_served":12,"connections_active":1,"connections_accepted":1,"connection_requests_served":12,"shards":3,"shard_service_boots":[1,1,1],"shard_requests_served":[10,0,7]}})",
     "b2020006 0b00000000000000 b8000000"
     " 04000000000000000a0000000000000002000000000000000600000000000000"
     " 080000000000000003000000000000000c000000000000000100000000000000"
     " 01000000000000000c0000000000000003000000000000000300000001000000"
     " 0000000001000000000000000100000000000000030000000a00000000000000"
     " 0000000000000000070000000000000000000000000000000000000000000000"
     " 000000000000000000000000000000000000000000000000"},
    {"stats_durable", MakeResponse(StatsResult{.snapshot_version = 9, .users = 5, .categories = 2,
                                 .reviews = 3, .ratings = 4, .service_boots = 1,
                                 .requests_served = 7, .shard_service_boots = {},
                                 .shard_requests_served = {}, .wal_records = 40,
                                 .wal_bytes = 4096, .segment_epoch = 9,
                                 .segment_bytes = 20480,
                                 .recovered_replayed_records = 17}, 12),
     R"({"v":1,"id":12,"status":"OK","result_type":"stats","result":{"snapshot_version":9,"users":5,"categories":2,"reviews":3,"ratings":4,"service_boots":1,"requests_served":7,"connections_active":0,"connections_accepted":0,"connection_requests_served":0,"wal_records":40,"wal_bytes":4096,"segment_epoch":9,"segment_bytes":20480,"recovered_replayed_records":17}})",
     "b2020006 0c00000000000000 88000000"
     " 0900000000000000050000000000000002000000000000000300000000000000"
     " 0400000000000000010000000000000007000000000000000000000000000000"
     " 0000000000000000000000000000000000000000000000000000000000000000"
     " 2800000000000000001000000000000009000000000000000050000000000000"
     " 1100000000000000"},
    {"stats_sharded_durable", MakeResponse(StatsResult{.snapshot_version = 4, .users = 10, .categories = 2,
                                 .reviews = 6, .ratings = 8, .service_boots = 2,
                                 .requests_served = 12, .connections_active = 1,
                                 .connections_accepted = 1,
                                 .connection_requests_served = 12, .shards = 2,
                                 .shard_service_boots = {1, 1},
                                 .shard_requests_served = {6, 6}, .wal_records = 3,
                                 .wal_bytes = 300, .segment_epoch = 4,
                                 .segment_bytes = 9000}, 13),
     R"({"v":1,"id":13,"status":"OK","result_type":"stats","result":{"snapshot_version":4,"users":10,"categories":2,"reviews":6,"ratings":8,"service_boots":2,"requests_served":12,"connections_active":1,"connections_accepted":1,"connection_requests_served":12,"shards":2,"shard_service_boots":[1,1],"shard_requests_served":[6,6],"wal_records":3,"wal_bytes":300,"segment_epoch":4,"segment_bytes":9000,"recovered_replayed_records":0}})",
     "b2020006 0d00000000000000 a8000000"
     " 04000000000000000a0000000000000002000000000000000600000000000000"
     " 080000000000000002000000000000000c000000000000000100000000000000"
     " 01000000000000000c0000000000000002000000000000000200000001000000"
     " 0000000001000000000000000200000006000000000000000600000000000000"
     " 03000000000000002c0100000000000004000000000000002823000000000000"
     " 0000000000000000"},
    {"metrics_empty", MakeResponse(MetricsResult{0, {}, {}, {}}, 14),
     R"({"v":1,"id":14,"status":"OK","result_type":"metrics","result":{"snapshot_version":0,"counters":[],"gauges":[],"histograms":[]}})",
     "b2020007 0e00000000000000 14000000"
     " 0000000000000000000000000000000000000000"},
    {"metrics", MakeResponse(MetricsResult{5, {{"api.errors", 2}, {"api.requests_served", 9}}, {{"replication.lag", -3}}, {{"api.latency_ns.trust", 9, 123456, 1000, 50000, 12000.5, 40000.0, 49999.0, 50000.0}}}, 15),
     R"({"v":1,"id":15,"status":"OK","result_type":"metrics","result":{"snapshot_version":5,"counters":[{"name":"api.errors","value":2},{"name":"api.requests_served","value":9}],"gauges":[{"name":"replication.lag","value":-3}],"histograms":[{"name":"api.latency_ns.trust","count":9,"sum":123456,"min":1000,"max":50000,"p50":12000.5,"p90":40000,"p99":49999,"p999":50000}]}})",
     "b2020007 0f00000000000000 bc000000"
     " 0500000000000000020000000a0000006170692e6572726f7273020000000000"
     " 0000130000006170692e72657175657374735f73657276656409000000000000"
     " 00010000000f0000007265706c69636174696f6e2e6c6167fdffffffffffffff"
     " 01000000140000006170692e6c6174656e63795f6e732e747275737409000000"
     " 0000000040e2010000000000e80300000000000050c300000000000000000000"
     " 4070c740000000000088e34000000000e069e84000000000006ae840"},
    {"repl_fetch_all_bytes", MakeResponse(ReplFetchResult{1, 7, 7, 9007199254740994ULL, 256, 4096, AllBytes()}, 16),
     R"({"v":1,"id":16,"status":"OK","result_type":"repl_fetch","result":{"kind":1,"base_version":7,"target_version":7,"source_version":9007199254740994,"offset":256,"total_bytes":4096,"payload":"000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f202122232425262728292a2b2c2d2e2f303132333435363738393a3b3c3d3e3f404142434445464748494a4b4c4d4e4f505152535455565758595a5b5c5d5e5f606162636465666768696a6b6c6d6e6f707172737475767778797a7b7c7d7e7f808182838485868788898a8b8c8d8e8f909192939495969798999a9b9c9d9e9fa0a1a2a3a4a5a6a7a8a9aaabacadaeafb0b1b2b3b4b5b6b7b8b9babbbcbdbebfc0c1c2c3c4c5c6c7c8c9cacbcccdcecfd0d1d2d3d4d5d6d7d8d9dadbdcdddedfe0e1e2e3e4e5e6e7e8e9eaebecedeeeff0f1f2f3f4f5f6f7f8f9fafbfcfdfeff"}})",
     "b2020008 1000000000000000 34010000"
     " 0100000000000000070000000000000007000000000000000200000000002000"
     " 0001000000000000001000000000000000010000000102030405060708090a0b"
     " 0c0d0e0f101112131415161718191a1b1c1d1e1f202122232425262728292a2b"
     " 2c2d2e2f303132333435363738393a3b3c3d3e3f404142434445464748494a4b"
     " 4c4d4e4f505152535455565758595a5b5c5d5e5f606162636465666768696a6b"
     " 6c6d6e6f707172737475767778797a7b7c7d7e7f808182838485868788898a8b"
     " 8c8d8e8f909192939495969798999a9b9c9d9e9fa0a1a2a3a4a5a6a7a8a9aaab"
     " acadaeafb0b1b2b3b4b5b6b7b8b9babbbcbdbebfc0c1c2c3c4c5c6c7c8c9cacb"
     " cccdcecfd0d1d2d3d4d5d6d7d8d9dadbdcdddedfe0e1e2e3e4e5e6e7e8e9eaeb"
     " ecedeeeff0f1f2f3f4f5f6f7f8f9fafbfcfdfeff"},
    {"repl_fetch_none", MakeResponse(ReplFetchResult{0, 0, 0, 3, 0, 0, ""}, 17),
     R"({"v":1,"id":17,"status":"OK","result_type":"repl_fetch","result":{"kind":0,"base_version":0,"target_version":0,"source_version":3,"offset":0,"total_bytes":0,"payload":""}})",
     "b2020008 1100000000000000 34000000"
     " 0000000000000000000000000000000000000000000000000300000000000000"
     " 0000000000000000000000000000000000000000"},
    {"repl_status", MakeResponse(ReplStatusResult{1, 5, 9, 2, {{0, "127.0.0.1:7001", 5, 1}, {1, "", 0, 0}}}, 18),
     R"({"v":1,"id":18,"status":"OK","result_type":"repl_status","result":{"role":1,"applied_version":5,"source_version":9,"failovers":2,"replicas":[{"shard":0,"address":"127.0.0.1:7001","applied_version":5,"healthy":1},{"shard":1,"address":"","applied_version":0,"healthy":0}]}})",
     "b2020009 1200000000000000 6a000000"
     " 0100000000000000050000000000000009000000000000000200000000000000"
     " 0200000000000000000000000e0000003132372e302e302e313a373030310500"
     " 0000000000000100000000000000010000000000000000000000000000000000"
     " 00000000000000000000"},
    {"repl_status_no_replicas", MakeResponse(ReplStatusResult{0, 3, 3, 0, {}}, 19),
     R"({"v":1,"id":19,"status":"OK","result_type":"repl_status","result":{"role":0,"applied_version":3,"source_version":3,"failovers":0,"replicas":[]}})",
     "b2020009 1300000000000000 24000000"
     " 0000000000000000030000000000000003000000000000000000000000000000"
     " 00000000"},
  };
}

TEST(WireGoldenTest, EveryAlternativeIsPinned) {
  std::vector<bool> methods(std::variant_size_v<RequestPayload>, false);
  for (const RequestGolden& golden : RequestGoldens()) {
    methods[golden.request.payload.index()] = true;
  }
  for (size_t i = 0; i < methods.size(); ++i) {
    EXPECT_TRUE(methods[i]) << "no golden for method " << AllMethodNames()[i];
  }
  std::vector<bool> results(std::variant_size_v<ResponsePayload>, false);
  for (const ResponseGolden& golden : ResponseGoldens()) {
    results[golden.response.payload.index()] = true;
  }
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_TRUE(results[i]) << "no golden for result alternative " << i;
  }
}

TEST(WireGoldenTest, RequestsEncodeToPinnedBytes) {
  for (const RequestGolden& golden : RequestGoldens()) {
    EXPECT_EQ(EncodeRequest(golden.request), golden.ndjson) << golden.label;
    EXPECT_EQ(Hex(EncodeRequestBinary(golden.request)),
              Hex(Unhex(golden.binary_hex)))
        << golden.label;
  }
}

TEST(WireGoldenTest, PinnedRequestBytesDecodeBack) {
  for (const RequestGolden& golden : RequestGoldens()) {
    Request decoded;
    ApiStatus status = DecodeRequest(golden.ndjson, &decoded);
    ASSERT_TRUE(status.ok()) << golden.label << ": " << status.ToString();
    EXPECT_EQ(decoded, golden.request) << golden.label;
    status = DecodeRequestBinary(Unhex(golden.binary_hex), &decoded);
    ASSERT_TRUE(status.ok()) << golden.label << ": " << status.ToString();
    EXPECT_EQ(decoded, golden.request) << golden.label;
  }
}

TEST(WireGoldenTest, ResponsesEncodeToPinnedBytes) {
  for (const ResponseGolden& golden : ResponseGoldens()) {
    EXPECT_EQ(EncodeResponse(golden.response), golden.ndjson) << golden.label;
    EXPECT_EQ(Hex(EncodeResponseBinary(golden.response)),
              Hex(Unhex(golden.binary_hex)))
        << golden.label;
  }
}

TEST(WireGoldenTest, PinnedResponseBytesDecodeBack) {
  for (const ResponseGolden& golden : ResponseGoldens()) {
    Response decoded;
    ApiStatus status = DecodeResponse(golden.ndjson, &decoded);
    ASSERT_TRUE(status.ok()) << golden.label << ": " << status.ToString();
    EXPECT_EQ(decoded, golden.response) << golden.label;
    status = DecodeResponseBinary(Unhex(golden.binary_hex), &decoded);
    ASSERT_TRUE(status.ok()) << golden.label << ": " << status.ToString();
    EXPECT_EQ(decoded, golden.response) << golden.label;
  }
}

// An error response carries only the status: any payload left on the
// Response is dropped by both framings.
TEST(WireGoldenTest, ErrorResponseIsPinned) {
  Response response = MakeResponse(TrustResult{0.5, "a", "b", 1}, 20);
  response.status = ApiStatus::NotFound("no user named 'zed'");
  EXPECT_EQ(EncodeResponse(response),
            R"({"v":1,"id":20,"status":"NOT_FOUND","error":"no user named 'zed'"})");
  EXPECT_EQ(Hex(EncodeResponseBinary(response)),
            Hex(Unhex("b2020100 1400000000000000 17000000"
                      " 130000006e6f2075736572206e616d656420277a656427")));
}

// NDJSON reads every unsigned field through a signed integer: values
// above 2^53 lose their low bits to the double the parser holds, and
// values above INT64_MAX are rejected. Binary carries all 64 bits.
TEST(WireGoldenTest, NdjsonU64FieldsDecodeThroughInt64) {
  Request request = MakeRequest(
      ReplFetchRequest{0, 9007199254740993ULL,
                       std::numeric_limits<uint64_t>::max()},
      30);
  const std::string line = EncodeRequest(request);
  EXPECT_EQ(line,
            R"({"v":1,"id":30,"method":"repl_fetch","params":{"shard":0,"applied_version":9007199254740993,"offset":18446744073709551615}})");
  Request decoded;
  ApiStatus status = DecodeRequest(line, &decoded);
  EXPECT_EQ(status.ToString(),
            "INVALID_ARGUMENT: field 'offset' must be an integer");

  status = DecodeRequest(
      R"({"v":1,"id":31,"method":"repl_fetch","params":{"applied_version":9007199254740993}})",
      &decoded);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(std::get<ReplFetchRequest>(decoded.payload).applied_version,
            9007199254740992ULL);

  status = DecodeRequestBinary(EncodeRequestBinary(request), &decoded);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(decoded, request);
}

// Optional request fields take their defaults when absent; unknown keys
// are ignored.
TEST(WireGoldenTest, NdjsonOptionalFieldsAndUnknownKeys) {
  struct Case {
    const char* line;
    RequestPayload expected;
  };
  const Case cases[] = {
      {R"({"v":1,"id":40,"method":"topk","params":{"source":"u0"}})",
       TopKQuery{"u0", 10}},
      {R"({"v":1,"id":41,"method":"repl_fetch"})", ReplFetchRequest{}},
      {R"({"v":1,"id":42,"method":"repl_fetch","params":{"offset":7}})",
       ReplFetchRequest{0, 0, 7}},
      {R"({"v":1,"id":43,"method":"trust","params":{"target":"b","extra":[1,{}],"source":"a"}})",
       TrustQuery{"a", "b"}},
      {R"({"v":1,"id":44,"method":"commit","params":{"force":true}})",
       CommitRequest{}},
  };
  for (const Case& c : cases) {
    Request decoded;
    ApiStatus status = DecodeRequest(c.line, &decoded);
    ASSERT_TRUE(status.ok()) << c.line << ": " << status.ToString();
    EXPECT_EQ(decoded.payload, c.expected) << c.line;
  }
}

// The error replies a server writes for undecodable request lines: a
// missing field, a mistyped field (the first bad field in declaration
// order wins), a non-integer k, an unknown method.
TEST(WireGoldenTest, NdjsonRequestDecodeErrorRepliesArePinned) {
  std::unique_ptr<TrustService> service =
      TrustService::Create(testing::TinyCommunity()).ValueOrDie();
  ServiceFrontend frontend(service.get());
  struct Case {
    const char* line;
    const char* reply;
  };
  const Case cases[] = {
    {R"({"v":1,"id":21,"method":"trust","params":{"source":"alice"}})",
     R"({"v":1,"id":21,"status":"INVALID_ARGUMENT","error":"missing field 'target'"})"},
    {R"({"v":1,"id":22,"method":"ingest_review","params":{"writer":"carol","object":"x"}})",
     R"({"v":1,"id":22,"status":"INVALID_ARGUMENT","error":"field 'object' must be an integer"})"},
    {R"({"v":1,"id":23,"method":"trust","params":{"source":1,"target":2}})",
     R"({"v":1,"id":23,"status":"INVALID_ARGUMENT","error":"field 'source' must be a string"})"},
    {R"({"v":1,"id":24,"method":"topk","params":{"source":"u0","k":2.5}})",
     R"({"v":1,"id":24,"status":"INVALID_ARGUMENT","error":"field 'k' must be an integer"})"},
    {R"({"v":1,"id":25,"method":"frobnicate","params":{}})",
     R"({"v":1,"id":25,"status":"UNIMPLEMENTED","error":"unknown method 'frobnicate'"})"},
    {R"({"v":1,"id":26,"method":"stats","params":[]})",
     R"({"v":1,"id":26,"status":"INVALID_ARGUMENT","error":"'params' must be an object"})"},
    {R"({"v":1,"id":27,"method":"repl_fetch","params":{"shard":0,"applied_version":-3,"offset":99999999999999999999}})",
     R"({"v":1,"id":27,"status":"INVALID_ARGUMENT","error":"field 'offset' must be an integer"})"},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(frontend.DispatchLine(c.line), c.reply) << c.line;
  }
}

// The binary twins: a payload missing its last field, topk without k, a
// string whose length prefix overruns the payload, trailing bytes, an
// unknown method code. Each reply is the pinned header followed by the
// u32-prefixed message.
TEST(WireGoldenTest, BinaryRequestDecodeErrorRepliesArePinned) {
  std::unique_ptr<TrustService> service =
      TrustService::Create(testing::TinyCommunity()).ValueOrDie();
  ServiceFrontend frontend(service.get());
  struct Case {
    const char* frame_hex;
    const char* reply_header_hex;
    std::string message;
  };
  const Case cases[] = {
      {"b2020000 1f00000000000000 09000000 05000000616c696365",
       "b2020200 1f00000000000000 1d000000", "malformed 'trust' payload"},
      {"b2020100 2000000000000000 06000000 020000007530",
       "b2020200 2000000000000000 1c000000", "malformed 'topk' payload"},
      {"b2020300 2100000000000000 05000000 6400000061",
       "b2020200 2100000000000000 23000000",
       "malformed 'ingest_user' payload"},
      {"b2020800 2200000000000000 01000000 00",
       "b2020200 2200000000000000 1e000000", "malformed 'commit' payload"},
      {"b202ee00 2300000000000000 00000000",
       "b2020300 2300000000000000 1b000000", "unknown method code 238"},
  };
  for (const Case& c : cases) {
    std::string length(4, '\0');
    for (size_t i = 0; i < 4; ++i) {
      length[i] = static_cast<char>((c.message.size() >> (8 * i)) & 0xFF);
    }
    EXPECT_EQ(Hex(frontend.DispatchFrame(Unhex(c.frame_hex))),
              Hex(Unhex(c.reply_header_hex) + length + c.message))
        << c.frame_hex;
  }
}

}  // namespace
}  // namespace api
}  // namespace wot
