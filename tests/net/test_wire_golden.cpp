// Golden-bytes corpus and mutation-parity fuzzer for the wire codec.
//
// Golden corpus: seeded instances of all 24 messages — a "full" one
// (8-bit-clean strings, non-empty vectors, kOk head), an "empty" one (empty
// strings and vectors; responses carry an error status) and, for responses,
// an "error" one (error status + message beside a populated payload).  Each
// must encode to the exact hex committed in wire_golden.inc and decode back
// to the same bytes.  The hex pins the v2 frame format: any codec change
// that moves a single byte fails here.
//
// Mutation parity: every golden frame gets a fixed-seed set of mutations —
// overwrites of every payload byte, an 8-byte zero window at every
// payload offset, retyped frames (one message's payload decoded as
// another's), relength-and-reseal truncations, inflated count/length
// fields, unsealed overwrites and appended bytes.  wire_golden.inc also
// holds the accept/reject bit the v2 decoder gave each mutation (packed as
// hex); the decoder must reproduce every bit, and every accepted
// mutation must re-encode to identical bytes.  The error KIND of a rejected
// frame is not pinned, only acceptance.
//
// Runs under ASan/UBSan in CI (label "net").

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <random>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

#include "net/wire.hpp"

namespace bellamy::net {
namespace {

using Bytes = std::vector<std::uint8_t>;

/// Every message of the catalog, in MsgType order (requests, then responses).
using AllMessages =
    std::tuple<PredictRequest, PredictManyRequest, PublishRequest, RefitAsyncRequest,
               MetricsRequest, SetQosRequest, EraseRequest, DrainRequest, AdvertiseRequest,
               DigestRequest, PullRequest, ReportRunRequest, PredictResponse,
               PredictManyResponse, PublishResponse, RefitResponse, MetricsResponse,
               SetQosResponse, EraseResponse, DrainResponse, AdvertiseResponse,
               DigestResponse, PullResponse, ReportRunResponse>;

constexpr const char* kMessageNames[] = {
    "PredictRequest",      "PredictManyRequest", "PublishRequest",   "RefitAsyncRequest",
    "MetricsRequest",      "SetQosRequest",      "EraseRequest",     "DrainRequest",
    "AdvertiseRequest",    "DigestRequest",      "PullRequest",      "ReportRunRequest",
    "PredictResponse",     "PredictManyResponse", "PublishResponse", "RefitResponse",
    "MetricsResponse",     "SetQosResponse",     "EraseResponse",    "DrainResponse",
    "AdvertiseResponse",   "DigestResponse",     "PullResponse",     "ReportRunResponse",
};

/// Calls f(std::type_identity<Msg>{}, index) for every message type.
template <typename F>
void for_each_message(F&& f) {
  [&]<typename... Ms>(std::tuple<Ms...>*) {
    std::size_t index = 0;
    (f(std::type_identity<Ms>{}, index++), ...);
  }(static_cast<AllMessages*>(nullptr));
}

// ---------------------------------------------------------------------------
// Seeded builders.  Only mt19937_64 output and integer arithmetic, so the
// corpus is the same on every standard library.
// ---------------------------------------------------------------------------

enum class Variant { kFull, kEmpty, kError };

struct Gen {
  std::mt19937_64 rng;
  Variant variant;

  bool populated() const { return variant != Variant::kEmpty; }
  std::uint64_t id() { return rng(); }
  std::uint64_t u64() { return populated() ? rng() : 0; }
  std::uint64_t below(std::uint64_t n) { return populated() ? rng() % n : 0; }
  /// A range-checked byte at the top of its range, so the "+ 1" mutation
  /// lands just past the bound.
  std::uint8_t top(std::uint8_t max) const { return populated() ? max : 0; }
  double f64() {
    if (!populated()) return 0.0;
    return static_cast<double>(static_cast<std::int64_t>(rng() >> 11) - (std::int64_t{1} << 52)) /
           4096.0;
  }
  /// Full byte range: the wire must be 8-bit clean.
  std::string str(std::size_t max_len) {
    if (!populated()) return {};
    std::string s(1 + rng() % max_len, '\0');
    for (char& c : s) c = static_cast<char>(rng() & 0xFF);
    return s;
  }
  serve::ModelKey key() { return {str(10), str(10)}; }
  data::JobRun run() {
    data::JobRun r;
    r.algorithm = str(12);
    r.environment = str(12);
    r.node_type = str(12);
    r.job_parameters = str(8);
    r.dataset_size_mb = u64();
    r.data_characteristics = str(16);
    r.memory_mb = u64();
    r.cpu_cores = u64();
    r.scale_out = static_cast<int>(below(1000)) - (populated() ? 500 : 0);
    r.runtime_s = f64();
    return r;
  }
  std::vector<data::JobRun> runs() {
    std::vector<data::JobRun> out(populated() ? 1 + rng() % 3 : 0);
    for (data::JobRun& r : out) r = run();
    return out;
  }
  std::vector<DigestEntry> entries() {
    std::vector<DigestEntry> out(populated() ? 1 + rng() % 4 : 0);
    for (DigestEntry& e : out) e = DigestEntry{key(), rng() | 1};  // stamp 0 is illegal
    return out;
  }
  ResponseHead head() {
    ResponseHead h;
    h.request_id = id();
    const std::uint64_t errors = static_cast<std::uint64_t>(serve::ServeStatus::kTimeout);
    if (variant == Variant::kEmpty) h.status = static_cast<serve::ServeStatus>(1 + rng() % errors);
    if (variant == Variant::kError) {
      h.status = serve::ServeStatus::kTimeout;  // the top of the range, see top()
      h.message = str(24);
    }
    return h;
  }
};

void fill(Gen& g, PredictRequest& m) {
  m.request_id = g.id();
  m.key = g.key();
  m.query = g.run();
}
void fill(Gen& g, PredictManyRequest& m) {
  m.request_id = g.id();
  m.key = g.key();
  m.queries = g.runs();
}
void fill(Gen& g, PublishRequest& m) {
  m.request_id = g.id();
  m.key = g.key();
  m.checkpoint_text = g.str(64);
}
void fill(Gen& g, RefitAsyncRequest& m) {
  m.request_id = g.id();
  m.key = g.key();
  m.runs = g.runs();
  m.config.max_epochs = g.below(10000);
  m.config.base_lr = g.f64();
  m.config.max_lr = g.f64();
  m.config.lr_cycle = g.below(1000);
  m.config.weight_decay = g.f64();
  m.config.mae_target_seconds = g.f64();
  m.config.patience = g.below(10000);
  m.config.seed = g.u64();
  m.config.unlock_f_after = g.below(100);
  m.config.unlock_f_immediately = g.below(2) != 0;
  m.config.train_autoencoder = g.below(2) != 0;
  m.config.batch_size = g.below(64);
  m.strategy = g.top(static_cast<std::uint8_t>(core::ReuseStrategy::kFullReset));
}
void fill(Gen& g, MetricsRequest& m) {
  m.request_id = g.id();
  m.key = g.key();
}
void fill(Gen& g, SetQosRequest& m) {
  m.request_id = g.id();
  m.key = g.key();
  m.qos_class = g.top(static_cast<std::uint8_t>(serve::QosClass::kBulk));
  m.weight = g.f64();
  m.max_lag_us = g.u64();
}
void fill(Gen& g, EraseRequest& m) {
  m.request_id = g.id();
  m.key = g.key();
}
void fill(Gen& g, DrainRequest& m) { m.request_id = g.id(); }
void fill(Gen& g, AdvertiseRequest& m) {
  m.request_id = g.id();
  m.entries = g.entries();
}
void fill(Gen& g, DigestRequest& m) { m.request_id = g.id(); }
void fill(Gen& g, PullRequest& m) {
  m.request_id = g.id();
  m.key = g.key();
}
void fill(Gen& g, ReportRunRequest& m) {
  m.request_id = g.id();
  m.key = g.key();
  m.run = g.run();
}
void fill(Gen& g, PredictResponse& m) {
  m.head = g.head();
  m.value = g.f64();
}
void fill(Gen& g, PredictManyResponse& m) {
  m.head = g.head();
  m.values.resize(g.populated() ? 1 + g.rng() % 9 : 0);
  for (double& v : m.values) v = g.f64();
}
void fill(Gen& g, PublishResponse& m) { m.head = g.head(); }
void fill(Gen& g, RefitResponse& m) {
  m.head = g.head();
  m.epochs_run = g.below(5000);
  m.best_mae_seconds = g.f64();
  m.reached_target = g.top(1);
  m.fit_seconds = g.f64();
}
void fill(Gen& g, MetricsResponse& m) {
  m.head = g.head();
  serve::ServeMetrics& s = m.metrics;
  for (std::uint64_t* field :
       {&s.requests, &s.responses, &s.batches, &s.coalesced, &s.deadline_flushes,
        &s.drain_flushes, &s.coalesced_requests, &s.max_queue_depth, &s.queue_depth,
        &s.replica_hits, &s.replica_misses, &s.replica_invalidations,
        &s.effective_flush_deadline_us, &s.max_dispatch_lag_us, &s.starved_flushes,
        &s.latency_count, &s.latency_p50_us, &s.latency_p95_us, &s.latency_p99_us,
        &s.drift_reports, &s.drift_refits, &s.reductions, &s.reduction_runs_dropped,
        &s.reduction_last_kept}) {
    *field = g.u64();
  }
  s.interarrival_ewma_us = g.f64();
  s.drift_error_ewma = g.f64();
}
void fill(Gen& g, SetQosResponse& m) { m.head = g.head(); }
void fill(Gen& g, EraseResponse& m) { m.head = g.head(); }
void fill(Gen& g, DrainResponse& m) { m.head = g.head(); }
void fill(Gen& g, AdvertiseResponse& m) { m.head = g.head(); }
void fill(Gen& g, DigestResponse& m) {
  m.head = g.head();
  m.entries = g.entries();
}
void fill(Gen& g, PullResponse& m) {
  m.head = g.head();
  m.stamp = g.populated() ? g.rng() | 1 : 0;  // a successful pull needs a real stamp
  m.checkpoint_text = g.str(64);
}
void fill(Gen& g, ReportRunResponse& m) {
  m.head = g.head();
  m.error_ewma = g.f64();
  m.reports = g.u64();
  m.refit_triggered = g.top(1);
}

struct NamedFrame {
  std::string name;
  Bytes bytes;
};

/// The corpus: per message, full + empty (+ error for responses).
std::vector<NamedFrame> golden_frames() {
  std::vector<NamedFrame> out;
  for_each_message([&](auto tag, std::size_t index) {
    using Msg = typename decltype(tag)::type;
    const bool response = (static_cast<std::uint16_t>(Msg::kType) & 0x80) != 0;
    const std::pair<Variant, const char*> variants[] = {
        {Variant::kFull, "full"}, {Variant::kEmpty, "empty"}, {Variant::kError, "error"}};
    for (const auto& [variant, label] : variants) {
      if (variant == Variant::kError && !response) continue;
      Gen g{std::mt19937_64(1000 * (index + 1) + static_cast<std::uint64_t>(variant)), variant};
      Msg msg;
      fill(g, msg);
      out.push_back({std::string(kMessageNames[index]) + "/" + label, encode_frame(msg)});
    }
  });
  return out;
}

// ---------------------------------------------------------------------------
// Decoding by the frame's own type, and the seeded mutations
// ---------------------------------------------------------------------------

struct Decoded {
  WireStatus status = WireStatus::kOk;
  Bytes reencoded;  ///< set only when status == kOk
};

/// Parse `bytes` and decode it as whichever message its type field names.
Decoded decode_any(const Bytes& bytes) {
  FrameView view;
  Decoded out;
  out.status = parse_frame(bytes.data(), bytes.size(), view);
  if (out.status != WireStatus::kOk) return out;
  out.status = WireStatus::kUnknownType;
  for_each_message([&](auto tag, std::size_t) {
    using Msg = typename decltype(tag)::type;
    if (view.type != static_cast<std::uint16_t>(Msg::kType)) return;
    Msg msg;
    out.status = decode_message(view, msg);
    if (out.status == WireStatus::kOk) out.reencoded = encode_frame(msg);
  });
  return out;
}

void reseal(Bytes& frame) {
  const std::uint64_t sum =
      util::fnv1a64_bytes(frame.data() + 4, frame.size() - 4 - kFrameChecksumBytes);
  std::memcpy(frame.data() + frame.size() - kFrameChecksumBytes, &sum, sizeof sum);
}

void put_u32(Bytes& frame, std::size_t at, std::uint32_t v) {
  std::memcpy(frame.data() + at, &v, sizeof v);
}

std::uint32_t get_u32(const Bytes& frame, std::size_t at) {
  std::uint32_t v = 0;
  std::memcpy(&v, frame.data() + at, sizeof v);
  return v;
}

/// The fixed-seed mutation set of one golden frame.  Every frame's payload
/// holds at least a u64 request id, so the payload ranges are never empty.
std::vector<Bytes> mutations(const Bytes& frame, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  const std::size_t begin = kFrameHeaderBytes;
  const std::size_t end = frame.size() - kFrameChecksumBytes;
  const std::size_t payload = end - begin;
  std::vector<Bytes> out;

  // Every payload byte overwritten with a seeded different value and with
  // its value + 1 and + 2, resealed: reaches every bool, enum and
  // range-checked byte, including just past its upper bound.
  for (std::size_t at = begin; at < end; ++at) {
    for (const std::uint8_t delta : {static_cast<std::uint8_t>(1 + rng() % 255),
                                     std::uint8_t{1}, std::uint8_t{2}}) {
      Bytes m = frame;
      m[at] = static_cast<std::uint8_t>(m[at] + delta);
      reseal(m);
      out.push_back(std::move(m));
    }
  }
  // An 8-byte zero window at every payload offset, resealed: zeroed stamps,
  // counts and lengths.
  for (std::size_t at = begin; at + 8 <= end; ++at) {
    Bytes m = frame;
    std::fill(m.begin() + static_cast<std::ptrdiff_t>(at),
              m.begin() + static_cast<std::ptrdiff_t>(at + 8), std::uint8_t{0});
    reseal(m);
    out.push_back(std::move(m));
  }
  // Retyped, resealed: one message's payload decoded as another's.
  for (int i = 0; i < 8; ++i) {
    Bytes m = frame;
    const std::uint16_t request = static_cast<std::uint16_t>(1 + rng() % 12);
    const std::uint16_t type = (rng() & 1) != 0 ? request | 0x80 : request;
    std::memcpy(m.data() + 6, &type, sizeof type);
    reseal(m);
    out.push_back(std::move(m));
  }
  // Relength + reseal truncations: a self-consistent frame, short payload.
  for (int i = 0; i < 8; ++i) {
    const std::size_t cut = rng() % payload;
    Bytes m(frame.begin(), frame.begin() + static_cast<std::ptrdiff_t>(begin + cut));
    m.resize(m.size() + kFrameChecksumBytes);
    put_u32(m, 0, static_cast<std::uint32_t>(m.size() - 4));
    reseal(m);
    out.push_back(std::move(m));
  }
  // Inflated counts/lengths: any u32 that could be a count or byte length
  // (it fits in what follows it) grows by one, or to a hostile size.
  std::vector<std::size_t> candidates;
  for (std::size_t at = begin; at + 4 <= end; ++at) {
    if (get_u32(frame, at) <= end - at - 4) candidates.push_back(at);
  }
  for (int i = 0; i < 6; ++i) {
    if (candidates.empty()) break;
    const std::size_t at = candidates[rng() % candidates.size()];
    for (const std::uint32_t v : {get_u32(frame, at) + 1, 0x7FFFFFFFu}) {
      Bytes m = frame;
      put_u32(m, at, v);
      reseal(m);
      out.push_back(std::move(m));
    }
  }
  // Unsealed overwrites anywhere, prefix and trailer included.
  for (int i = 0; i < 4; ++i) {
    Bytes m = frame;
    m[rng() % m.size()] ^= static_cast<std::uint8_t>(1 + rng() % 255);
    out.push_back(std::move(m));
  }
  // Appended bytes the length prefix covers, resealed.
  {
    Bytes m = frame;
    m.insert(m.begin() + static_cast<std::ptrdiff_t>(end), static_cast<std::uint8_t>(rng()));
    put_u32(m, 0, static_cast<std::uint32_t>(m.size() - 4));
    reseal(m);
    out.push_back(std::move(m));
  }
  return out;
}

std::string to_hex(const Bytes& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string hex;
  for (std::uint8_t b : bytes) {
    hex.push_back(kDigits[b >> 4]);
    hex.push_back(kDigits[b & 0xF]);
  }
  return hex;
}

/// Pack accept bits four to a hex digit, most significant bit first.
std::string pack_bits(const std::vector<bool>& bits) {
  std::string hex;
  for (std::size_t at = 0; at < bits.size(); at += 4) {
    unsigned nibble = 0;
    for (std::size_t k = at; k < at + 4; ++k) nibble = (nibble << 1) | (k < bits.size() && bits[k]);
    hex.push_back("0123456789abcdef"[nibble]);
  }
  return hex;
}

/// Unpack GoldenEntry::bits into one bool per mutation.
std::vector<bool> unpack_bits(const std::string& hex) {
  std::vector<bool> bits;
  for (char digit : hex) {
    const unsigned nibble = std::stoul(std::string(1, digit), nullptr, 16);
    for (int shift = 3; shift >= 0; --shift) bits.push_back(((nibble >> shift) & 1u) != 0);
  }
  return bits;
}

Bytes from_hex(const std::string& hex) {
  Bytes bytes(hex.size() / 2);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<std::uint8_t>(std::stoul(hex.substr(2 * i, 2), nullptr, 16));
  }
  return bytes;
}

struct GoldenEntry {
  const char* name;
  const char* hex;   ///< the frame, encode_frame output
  /// Accept (1) / reject (0) of each mutation in mutations() order, packed
  /// four to a hex digit, most significant bit first.
  const char* bits;
};

const std::vector<GoldenEntry> kGolden = {
#include "wire_golden.inc"
};

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

TEST(WireGolden, EveryMessageEncodesToTheCommittedBytes) {
  const std::vector<NamedFrame> frames = golden_frames();
  // A message appended to AllMessages yields frames past the committed
  // entries: print the entry wire_golden.inc must gain for each.
  for (std::size_t i = kGolden.size(); i < frames.size(); ++i) {
    std::vector<bool> bits;
    for (const Bytes& m : mutations(frames[i].bytes, 7000 + i)) {
      bits.push_back(decode_any(m).status == WireStatus::kOk);
    }
    ADD_FAILURE() << "not in wire_golden.inc: " << frames[i].name << "\n  hex  "
                  << to_hex(frames[i].bytes) << "\n  bits " << pack_bits(bits);
  }
  ASSERT_GE(frames.size(), kGolden.size());
  for (std::size_t i = 0; i < kGolden.size(); ++i) {
    EXPECT_EQ(frames[i].name, kGolden[i].name);
    EXPECT_EQ(to_hex(frames[i].bytes), kGolden[i].hex) << frames[i].name;
    const Decoded decoded = decode_any(frames[i].bytes);
    EXPECT_EQ(decoded.status, WireStatus::kOk) << frames[i].name << ": "
                                               << to_string(decoded.status);
    EXPECT_EQ(decoded.reencoded, frames[i].bytes) << frames[i].name;
  }
}

TEST(WireGolden, CorpusCoversEveryMessageType) {
  std::vector<bool> seen(256, false);
  for (const GoldenEntry& entry : kGolden) {
    const Bytes frame = from_hex(entry.hex);
    FrameView view;
    ASSERT_EQ(parse_frame(frame.data(), frame.size(), view), WireStatus::kOk) << entry.name;
    seen[view.type] = true;
  }
  for_each_message([&](auto tag, std::size_t) {
    using Msg = typename decltype(tag)::type;
    EXPECT_TRUE(seen[static_cast<std::uint16_t>(Msg::kType)])
        << "type " << static_cast<int>(Msg::kType) << " missing from the corpus";
  });
}

TEST(WireGolden, MutationAcceptanceMatchesTheCommittedBits) {
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  std::size_t disagreements = 0;
  for (std::size_t i = 0; i < kGolden.size(); ++i) {
    const GoldenEntry& entry = kGolden[i];
    const std::vector<Bytes> mutants = mutations(from_hex(entry.hex), 7000 + i);
    const std::vector<bool> bits = unpack_bits(entry.bits);
    // Packing pads the last hex digit with zero bits.
    ASSERT_EQ((mutants.size() + 3) / 4, bits.size() / 4) << entry.name;
    for (std::size_t j = 0; j < mutants.size(); ++j) {
      const Decoded decoded = decode_any(mutants[j]);
      const bool ok = decoded.status == WireStatus::kOk;
      (ok ? accepted : rejected) += 1;
      if (ok != bits[j]) {
        ++disagreements;
        ADD_FAILURE() << entry.name << " mutation " << j << ": "
                      << (ok ? "accepted" : "rejected") << " ("
                      << to_string(decoded.status) << "), committed bit " << bits[j];
      }
      if (ok) {
        EXPECT_EQ(decoded.reencoded, mutants[j])
            << entry.name << " mutation " << j << " does not re-encode to its own bytes";
      }
    }
  }
  EXPECT_EQ(disagreements, 0u);
  // The corpus must exercise both outcomes, or the parity check is vacuous.
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(rejected, 0u);
}

}  // namespace
}  // namespace bellamy::net
