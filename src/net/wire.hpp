#pragma once
// The Bellamy wire protocol: a versioned, typed, length-prefixed binary
// format shared VERBATIM by client and server (one field list per message,
// no separate client/server schemas to drift apart).
//
// Frame layout, little-endian throughout:
//
//   [u32 len | u16 version | u16 type | payload ... | u64 checksum]
//
// `len` counts everything after itself (version + type + payload +
// checksum), so a stream reader needs exactly one fixed-size read to know
// how much to pull.  The trailing checksum is FNV-1a 64 over version + type
// + payload: without it a garbled-but-parseable frame could decode as a
// VALID different message (the chaos-soak scenario); with it a flipped bit
// anywhere in the body is a typed kChecksumMismatch.  Version is checked
// BEFORE the checksum so an old-version peer still gets the honest
// kVersionMismatch.  Frames above kMaxFrameBytes are rejected before any
// allocation sized by attacker-controlled input; decode failures are TYPED
// (WireStatus), never exceptions — a malformed frame from the network is an
// expected input, not a programming error.
//
// One small POD-ish struct per message.  Each lists its fields ONCE, in
// wire order:
//
//   static constexpr MsgType kType;
//   template <class Self, class F> static void fields(Self& m, F&& f) {
//     f(m.request_id, m.key, m.query);
//   }
//
// and one generic writer/reader (write_field / read_field) walks that list
// to encode and decode, so the two directions cannot drift apart.  Nested
// value types (ModelKey, JobRun, FineTuneConfig, ServeMetrics, DigestEntry)
// carry free `fields` overloads; a type with a rule that spans fields adds
// `bool valid() const`, checked after decode (false = kMalformed).  The
// frame-level helpers are encode_frame<Msg>() / decode_frame<Msg>().
//
// Every request carries a client-chosen request_id echoed by its response,
// so responses may complete out of order (the PredictionService resolves
// micro-batches whenever their lane flushes) and still correlate.
//
// Request/response catalog (docs/ARCHITECTURE.md has the reference table):
//
//   PredictRequest      -> PredictResponse       one query, one value
//   PredictManyRequest  -> PredictManyResponse   batch of queries
//   PublishRequest      -> PublishResponse       install a model (checkpoint text)
//   RefitAsyncRequest   -> RefitResponse         queue a background fine-tune;
//                                                the response is PUSHED when the
//                                                swap lands (refit-done event)
//   MetricsRequest      -> MetricsResponse       ServeMetrics incl. percentiles
//   SetQosRequest       -> SetQosResponse        class / weight / max_lag
//   EraseRequest        -> EraseResponse         retire a key
//   DrainRequest        -> DrainResponse         graceful drain; sent AFTER every
//                                                in-flight response of the
//                                                connection has been written
//   AdvertiseRequest    -> AdvertiseResponse     peer gossip: "here is my catalog"
//   DigestRequest       -> DigestResponse        ask a peer for its catalog
//   PullRequest         -> PullResponse          fetch one checkpoint by key
//   ReportRunRequest    -> ReportRunResponse     feed an OBSERVED runtime back
//                                                (drift monitoring / refit data)
//
// The last three are the exchange-layer messages (src/exchange/): node-to-node
// checkpoint gossip.  They reuse the checkpoint-as-text encoding publish uses,
// so a model pulled from a peer is bit-identical to the peer's own.
//
// Models are addressed by ModelKey (job + context strings): handles are
// process-local and never cross the wire.

#include <algorithm>
#include <concepts>
#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "core/trainer.hpp"
#include "data/record.hpp"
#include "serve/model_registry.hpp"
#include "serve/prediction_service.hpp"
#include "serve/serve_result.hpp"
#include "util/hash.hpp"

namespace bellamy::net {

/// Bumped on any incompatible layout change; decode rejects mismatches with
/// WireStatus::kVersionMismatch (never guesses).  v2: trailing FNV-1a frame
/// checksum + report_run path + reduction/drift metrics fields.
inline constexpr std::uint16_t kWireVersion = 2;

/// Hard ceiling on `len` (version + type + payload).  Checkpoints are the
/// largest payloads (publish); 64 MB is orders of magnitude above any real
/// one while still bounding what a hostile length prefix can allocate.
inline constexpr std::uint32_t kMaxFrameBytes = 64u << 20;

/// Bytes of the fixed prefix before the payload: u32 len + u16 ver + u16 type.
inline constexpr std::size_t kFrameHeaderBytes = 8;

/// Bytes of the trailing FNV-1a 64 checksum every frame body carries.
inline constexpr std::size_t kFrameChecksumBytes = 8;

/// The catalog rule: requests count up from 1 with no gaps, and every
/// response type is its request type | 0x80.  is_known_type() is derived
/// from exactly that rule, so a new message keeps it.
enum class MsgType : std::uint16_t {
  kPredictRequest = 1,
  kPredictManyRequest = 2,
  kPublishRequest = 3,
  kRefitAsyncRequest = 4,
  kMetricsRequest = 5,
  kSetQosRequest = 6,
  kEraseRequest = 7,
  kDrainRequest = 8,
  kAdvertiseRequest = 9,
  kDigestRequest = 10,
  kPullRequest = 11,
  kReportRunRequest = 12,

  kPredictResponse = 129,
  kPredictManyResponse = 130,
  kPublishResponse = 131,
  kRefitResponse = 132,
  kMetricsResponse = 133,
  kSetQosResponse = 134,
  kEraseResponse = 135,
  kDrainResponse = 136,
  kAdvertiseResponse = 137,
  kDigestResponse = 138,
  kPullResponse = 139,
  kReportRunResponse = 140,
};

/// True for any type value the catalog knows (request or response).
bool is_known_type(std::uint16_t type);

/// Typed decode outcome.  kOk is 0 so `if (status != WireStatus::kOk)` reads
/// naturally; everything else names WHY the bytes were rejected.
enum class WireStatus : std::uint8_t {
  kOk = 0,
  kTruncated,        ///< ran out of bytes mid-field (or len > available)
  kVersionMismatch,  ///< frame version != kWireVersion
  kUnknownType,      ///< type value outside the catalog
  kWrongType,        ///< well-formed frame, but not the message asked for
  kOversizedFrame,   ///< len exceeds kMaxFrameBytes (or < header remainder)
  kTrailingBytes,    ///< payload decoded but bytes remain (layout drift)
  kMalformed,        ///< field-level validation failed (bad enum value, ...)
  kChecksumMismatch, ///< frame bits corrupted in flight (FNV-1a trailer)
};

const char* to_string(WireStatus status);

// ---------------------------------------------------------------------------
// Primitive writer / reader
// ---------------------------------------------------------------------------

/// Append-only little-endian byte buffer.
class WireWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) { append(&v, sizeof v); }
  void u32(std::uint32_t v) { append(&v, sizeof v); }
  void u64(std::uint64_t v) { append(&v, sizeof v); }
  void i32(std::int32_t v) { append(&v, sizeof v); }
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  /// u32 byte count + raw bytes (doubles as the blob encoder).
  void str(const std::string& v) {
    u32(static_cast<std::uint32_t>(v.size()));
    buf_.insert(buf_.end(), v.begin(), v.end());
  }

  const std::vector<std::uint8_t>& bytes() const { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }
  std::size_t size() const { return buf_.size(); }

 private:
  void append(const void* p, std::size_t n) {
    const auto* b = static_cast<const std::uint8_t*>(p);
    buf_.insert(buf_.end(), b, b + n);
  }
  std::vector<std::uint8_t> buf_;
};

/// Bounds-checked little-endian reader over a borrowed buffer.  The first
/// short read latches failed(); subsequent reads are no-ops returning zeroed
/// values, so decoders can read a whole struct and check ok() once.
class WireReader {
 public:
  WireReader(const std::uint8_t* data, std::size_t size) : data_(data), size_(size) {}

  bool u8(std::uint8_t& v) { return fixed(&v, sizeof v); }
  bool u16(std::uint16_t& v) { return fixed(&v, sizeof v); }
  bool u32(std::uint32_t& v) { return fixed(&v, sizeof v); }
  bool u64(std::uint64_t& v) { return fixed(&v, sizeof v); }
  bool i32(std::int32_t& v) { return fixed(&v, sizeof v); }
  bool f64(double& v) {
    std::uint64_t bits = 0;
    if (!u64(bits)) return false;
    std::memcpy(&v, &bits, sizeof v);
    return true;
  }
  bool str(std::string& v) {
    std::uint32_t n = 0;
    if (!u32(n)) return false;
    if (n > remaining()) return fail();
    v.assign(reinterpret_cast<const char*>(data_ + off_), n);
    off_ += n;
    return true;
  }

  std::size_t remaining() const { return size_ - off_; }
  bool ok() const { return !failed_; }

 private:
  bool fixed(void* out, std::size_t n) {
    if (failed_ || n > remaining()) {
      std::memset(out, 0, n);
      return fail();
    }
    std::memcpy(out, data_ + off_, n);
    off_ += n;
    return true;
  }
  bool fail() {
    failed_ = true;
    return false;
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t off_ = 0;
  bool failed_ = false;
};

// ---------------------------------------------------------------------------
// Field lists of the value types messages nest, in wire order
// ---------------------------------------------------------------------------

/// T is U or const U: one field list serves the writer and the reader.
template <class T, class U>
concept MaybeConst = std::same_as<std::remove_const_t<T>, U>;

template <MaybeConst<serve::ModelKey> K, class F>
void fields(K& k, F&& f) {
  f(k.job, k.context);
}

template <MaybeConst<data::JobRun> R, class F>
void fields(R& r, F&& f) {
  f(r.algorithm, r.environment, r.node_type, r.job_parameters, r.dataset_size_mb,
    r.data_characteristics, r.memory_mb, r.cpu_cores, r.scale_out, r.runtime_s);
}

/// Wire order, which is not the struct's declaration order.
template <MaybeConst<core::FineTuneConfig> C, class F>
void fields(C& c, F&& f) {
  f(c.max_epochs, c.base_lr, c.max_lr, c.lr_cycle, c.weight_decay, c.mae_target_seconds,
    c.patience, c.seed, c.unlock_f_after, c.unlock_f_immediately, c.train_autoencoder,
    c.batch_size);
}

template <MaybeConst<serve::ServeMetrics> M, class F>
void fields(M& m, F&& f) {
  f(m.requests, m.responses, m.batches, m.coalesced, m.deadline_flushes, m.drain_flushes,
    m.coalesced_requests, m.max_queue_depth, m.queue_depth, m.replica_hits, m.replica_misses,
    m.replica_invalidations, m.effective_flush_deadline_us, m.interarrival_ewma_us,
    m.max_dispatch_lag_us, m.starved_flushes, m.latency_count, m.latency_p50_us,
    m.latency_p95_us, m.latency_p99_us, m.drift_error_ewma, m.drift_reports, m.drift_refits,
    m.reductions, m.reduction_runs_dropped, m.reduction_last_kept);
}

// ---------------------------------------------------------------------------
// Exchange-layer value types
// ---------------------------------------------------------------------------

/// One row of a node's checkpoint catalog: which model it has and how fresh.
/// Stamps are Lamport-style: every local publish/refit bumps the node's clock
/// past every stamp it has seen, so "highest stamp wins" totally orders
/// competing versions.  Stamp 0 is reserved for "absent" and is rejected on
/// decode (kMalformed).
struct DigestEntry {
  serve::ModelKey key;
  std::uint64_t stamp = 0;

  bool valid() const { return stamp != 0; }
};

template <MaybeConst<DigestEntry> E, class F>
void fields(E& e, F&& f) {
  f(e.key, e.stamp);
}

/// A checkpoint pulled off a peer: the catalog stamp it was advertised under
/// plus the exact nn::Checkpoint text (hex-float, the ModelStore on-disk
/// format) — installing it reproduces the peer's model bit for bit.
struct PulledCheckpoint {
  std::uint64_t stamp = 0;
  std::string checkpoint_text;
};

// ---------------------------------------------------------------------------
// The generic codec: one writer and one reader over any field list
// ---------------------------------------------------------------------------
//
// Field encodings: bool and u8 as u8 (a bool byte above 1 is kMalformed),
// enums as a range-checked u8, int32 as i32, every other unsigned integer
// (u64, size_t) as u64, double as the f64 bit pattern, string as u32 length
// + bytes, vector as u32 count + elements, anything else as its field list.

/// Highest valid value of each enum that travels as a u8; decode rejects
/// anything above it so a corrupted byte cannot smuggle an out-of-range enum
/// into a switch.
constexpr std::uint8_t wire_max(serve::ServeStatus) {
  return static_cast<std::uint8_t>(serve::ServeStatus::kTimeout);
}

/// Cap on up-front vector reserves sized by a wire-supplied count.  Counts
/// above this still decode fine (the vector grows normally); the cap only
/// bounds what a HOSTILE count can allocate before element decoding fails.
inline constexpr std::uint32_t kMaxEagerReserve = 4096;

template <class T>
inline constexpr bool kIsVector = false;
template <class T>
inline constexpr bool kIsVector<std::vector<T>> = true;

/// Messages declare `fields` as a static member, value types as a free overload.
template <class T, class F>
void visit_fields(T& v, F&& f) {
  if constexpr (requires { std::remove_const_t<T>::fields(v, f); }) {
    std::remove_const_t<T>::fields(v, f);
  } else {
    fields(v, f);
  }
}

template <class T>
void write_field(WireWriter& w, const T& v) {
  if constexpr (std::is_same_v<T, bool>) {
    w.u8(v ? 1 : 0);
  } else if constexpr (std::is_same_v<T, std::uint8_t> || std::is_enum_v<T>) {
    w.u8(static_cast<std::uint8_t>(v));
  } else if constexpr (std::is_same_v<T, std::int32_t>) {
    w.i32(v);
  } else if constexpr (std::is_unsigned_v<T>) {
    w.u64(static_cast<std::uint64_t>(v));
  } else if constexpr (std::is_same_v<T, double>) {
    w.f64(v);
  } else if constexpr (std::is_same_v<T, std::string>) {
    w.str(v);
  } else if constexpr (kIsVector<T>) {
    w.u32(static_cast<std::uint32_t>(v.size()));
    for (const auto& element : v) write_field(w, element);
  } else {
    visit_fields(v, [&w](const auto&... field) { (write_field(w, field), ...); });
  }
}

template <class T>
WireStatus read_field(WireReader& r, T& v) {
  if constexpr (std::is_same_v<T, bool> || std::is_enum_v<T>) {
    std::uint8_t raw = 0;
    if (!r.u8(raw)) return WireStatus::kTruncated;
    if constexpr (std::is_same_v<T, bool>) {
      if (raw > 1) return WireStatus::kMalformed;
    } else {
      if (raw > wire_max(T{})) return WireStatus::kMalformed;
    }
    v = static_cast<T>(raw);
  } else if constexpr (std::is_same_v<T, std::uint8_t>) {
    if (!r.u8(v)) return WireStatus::kTruncated;
  } else if constexpr (std::is_same_v<T, std::int32_t>) {
    if (!r.i32(v)) return WireStatus::kTruncated;
  } else if constexpr (std::is_unsigned_v<T>) {
    std::uint64_t raw = 0;
    if (!r.u64(raw)) return WireStatus::kTruncated;
    v = static_cast<T>(raw);
  } else if constexpr (std::is_same_v<T, double>) {
    if (!r.f64(v)) return WireStatus::kTruncated;
  } else if constexpr (std::is_same_v<T, std::string>) {
    if (!r.str(v)) return WireStatus::kTruncated;
  } else if constexpr (kIsVector<T>) {
    std::uint32_t count = 0;
    if (!r.u32(count)) return WireStatus::kTruncated;
    v.clear();
    v.reserve(std::min(count, kMaxEagerReserve));
    for (std::uint32_t i = 0; i < count; ++i) {
      typename T::value_type element{};
      const WireStatus status = read_field(r, element);
      if (status != WireStatus::kOk) return status;
      v.push_back(std::move(element));
    }
  } else {
    WireStatus status = WireStatus::kOk;
    visit_fields(v, [&](auto&... field) {  // in order, stopping at the first failure
      static_cast<void>((((status = read_field(r, field)) == WireStatus::kOk) && ...));
    });
    if (status != WireStatus::kOk) return status;
    if constexpr (requires { v.valid(); }) {
      if (!v.valid()) return WireStatus::kMalformed;
    }
  }
  return WireStatus::kOk;
}

// ---------------------------------------------------------------------------
// Messages — requests
// ---------------------------------------------------------------------------

struct PredictRequest {
  static constexpr MsgType kType = MsgType::kPredictRequest;
  std::uint64_t request_id = 0;
  serve::ModelKey key;
  data::JobRun query;

  template <class Self, class F>
  static void fields(Self& m, F&& f) { f(m.request_id, m.key, m.query); }
};

struct PredictManyRequest {
  static constexpr MsgType kType = MsgType::kPredictManyRequest;
  std::uint64_t request_id = 0;
  serve::ModelKey key;
  std::vector<data::JobRun> queries;  ///< zero-length batches are legal

  template <class Self, class F>
  static void fields(Self& m, F&& f) { f(m.request_id, m.key, m.queries); }
};

struct PublishRequest {
  static constexpr MsgType kType = MsgType::kPublishRequest;
  std::uint64_t request_id = 0;
  serve::ModelKey key;
  /// nn::Checkpoint text (the ModelStore on-disk format, hex-float exact) —
  /// the same bytes a store would hold, so publish-over-wire and
  /// open-from-store install bit-identical models.
  std::string checkpoint_text;

  template <class Self, class F>
  static void fields(Self& m, F&& f) { f(m.request_id, m.key, m.checkpoint_text); }
};

struct RefitAsyncRequest {
  static constexpr MsgType kType = MsgType::kRefitAsyncRequest;
  std::uint64_t request_id = 0;
  serve::ModelKey key;
  std::vector<data::JobRun> runs;  ///< empty = direct reuse (reset to base)
  core::FineTuneConfig config;
  std::uint8_t strategy = 0;  ///< core::ReuseStrategy, validated on decode

  template <class Self, class F>
  static void fields(Self& m, F&& f) { f(m.request_id, m.key, m.runs, m.config, m.strategy); }
  bool valid() const {
    return strategy <= static_cast<std::uint8_t>(core::ReuseStrategy::kFullReset);
  }
};

struct MetricsRequest {
  static constexpr MsgType kType = MsgType::kMetricsRequest;
  std::uint64_t request_id = 0;
  serve::ModelKey key;

  template <class Self, class F>
  static void fields(Self& m, F&& f) { f(m.request_id, m.key); }
};

struct SetQosRequest {
  static constexpr MsgType kType = MsgType::kSetQosRequest;
  std::uint64_t request_id = 0;
  serve::ModelKey key;
  std::uint8_t qos_class = 0;  ///< serve::QosClass, validated on decode
  double weight = 1.0;
  std::uint64_t max_lag_us = 0;

  template <class Self, class F>
  static void fields(Self& m, F&& f) {
    f(m.request_id, m.key, m.qos_class, m.weight, m.max_lag_us);
  }
  bool valid() const { return qos_class <= static_cast<std::uint8_t>(serve::QosClass::kBulk); }
};

struct EraseRequest {
  static constexpr MsgType kType = MsgType::kEraseRequest;
  std::uint64_t request_id = 0;
  serve::ModelKey key;

  template <class Self, class F>
  static void fields(Self& m, F&& f) { f(m.request_id, m.key); }
};

struct DrainRequest {
  static constexpr MsgType kType = MsgType::kDrainRequest;
  std::uint64_t request_id = 0;

  template <class Self, class F>
  static void fields(Self& m, F&& f) { f(m.request_id); }
};

/// Peer gossip, fire-and-forget semantics: "my catalog currently looks like
/// this".  The receiver compares stamps and schedules pulls for anything
/// newer; the response is a bare acknowledgement.
struct AdvertiseRequest {
  static constexpr MsgType kType = MsgType::kAdvertiseRequest;
  std::uint64_t request_id = 0;
  std::vector<DigestEntry> entries;  ///< empty catalogs are legal

  template <class Self, class F>
  static void fields(Self& m, F&& f) { f(m.request_id, m.entries); }
};

/// Ask a peer for its full catalog (the poll half of anti-entropy).
struct DigestRequest {
  static constexpr MsgType kType = MsgType::kDigestRequest;
  std::uint64_t request_id = 0;

  template <class Self, class F>
  static void fields(Self& m, F&& f) { f(m.request_id); }
};

/// Fetch one checkpoint by key.
struct PullRequest {
  static constexpr MsgType kType = MsgType::kPullRequest;
  std::uint64_t request_id = 0;
  serve::ModelKey key;

  template <class Self, class F>
  static void fields(Self& m, F&& f) { f(m.request_id, m.key); }
};

/// Report an OBSERVED run (query + measured runtime) back to the server:
/// the drift monitor compares it against the model's own prediction, feeds
/// the error EWMA in ServeMetrics, and may auto-queue a reduced refit.
struct ReportRunRequest {
  static constexpr MsgType kType = MsgType::kReportRunRequest;
  std::uint64_t request_id = 0;
  serve::ModelKey key;
  data::JobRun run;  ///< run.runtime_s is the ground-truth observation

  template <class Self, class F>
  static void fields(Self& m, F&& f) { f(m.request_id, m.key, m.run); }
};

// ---------------------------------------------------------------------------
// Messages — responses.  Every response leads with (request_id, status,
// message); payload fields are meaningful only when status == kOk.
// ---------------------------------------------------------------------------

/// The (request_id, ServeStatus, message) triple every response leads with.
struct ResponseHead {
  std::uint64_t request_id = 0;
  serve::ServeStatus status = serve::ServeStatus::kOk;
  std::string message;

  bool ok() const { return status == serve::ServeStatus::kOk; }
  template <class Self, class F>
  static void fields(Self& m, F&& f) { f(m.request_id, m.status, m.message); }
};

struct PredictResponse {
  static constexpr MsgType kType = MsgType::kPredictResponse;
  ResponseHead head;
  double value = 0.0;

  template <class Self, class F>
  static void fields(Self& m, F&& f) { f(m.head, m.value); }
};

struct PredictManyResponse {
  static constexpr MsgType kType = MsgType::kPredictManyResponse;
  ResponseHead head;
  std::vector<double> values;

  template <class Self, class F>
  static void fields(Self& m, F&& f) { f(m.head, m.values); }
};

struct PublishResponse {
  static constexpr MsgType kType = MsgType::kPublishResponse;
  ResponseHead head;

  template <class Self, class F>
  static void fields(Self& m, F&& f) { f(m.head); }
};

struct RefitResponse {
  static constexpr MsgType kType = MsgType::kRefitResponse;
  ResponseHead head;
  std::uint64_t epochs_run = 0;
  double best_mae_seconds = 0.0;
  std::uint8_t reached_target = 0;
  double fit_seconds = 0.0;

  template <class Self, class F>
  static void fields(Self& m, F&& f) {
    f(m.head, m.epochs_run, m.best_mae_seconds, m.reached_target, m.fit_seconds);
  }
  bool valid() const { return reached_target <= 1; }
};

struct MetricsResponse {
  static constexpr MsgType kType = MsgType::kMetricsResponse;
  ResponseHead head;
  serve::ServeMetrics metrics;

  template <class Self, class F>
  static void fields(Self& m, F&& f) { f(m.head, m.metrics); }
};

struct SetQosResponse {
  static constexpr MsgType kType = MsgType::kSetQosResponse;
  ResponseHead head;

  template <class Self, class F>
  static void fields(Self& m, F&& f) { f(m.head); }
};

struct EraseResponse {
  static constexpr MsgType kType = MsgType::kEraseResponse;
  ResponseHead head;

  template <class Self, class F>
  static void fields(Self& m, F&& f) { f(m.head); }
};

struct DrainResponse {
  static constexpr MsgType kType = MsgType::kDrainResponse;
  ResponseHead head;

  template <class Self, class F>
  static void fields(Self& m, F&& f) { f(m.head); }
};

struct AdvertiseResponse {
  static constexpr MsgType kType = MsgType::kAdvertiseResponse;
  ResponseHead head;

  template <class Self, class F>
  static void fields(Self& m, F&& f) { f(m.head); }
};

struct DigestResponse {
  static constexpr MsgType kType = MsgType::kDigestResponse;
  ResponseHead head;
  std::vector<DigestEntry> entries;

  template <class Self, class F>
  static void fields(Self& m, F&& f) { f(m.head, m.entries); }
};

struct PullResponse {
  static constexpr MsgType kType = MsgType::kPullResponse;
  ResponseHead head;
  /// Stamp + checkpoint text; meaningful only when head.ok().  On a
  /// successful pull the stamp must be non-zero (kMalformed otherwise).
  std::uint64_t stamp = 0;
  std::string checkpoint_text;

  template <class Self, class F>
  static void fields(Self& m, F&& f) { f(m.head, m.stamp, m.checkpoint_text); }
  bool valid() const { return !head.ok() || stamp != 0; }
};

/// What the drift monitor knew right after folding the reported run in.
struct ReportRunResponse {
  static constexpr MsgType kType = MsgType::kReportRunResponse;
  ResponseHead head;
  double error_ewma = 0.0;          ///< relative-error EWMA after this report
  std::uint64_t reports = 0;        ///< runs reported for this handle so far
  std::uint8_t refit_triggered = 0; ///< this report crossed the drift threshold

  template <class Self, class F>
  static void fields(Self& m, F&& f) { f(m.head, m.error_ewma, m.reports, m.refit_triggered); }
  bool valid() const { return refit_triggered <= 1; }
};

// ---------------------------------------------------------------------------
// Frame assembly / parsing
// ---------------------------------------------------------------------------

/// A parsed frame: version/type plus a BORROWED view of the payload bytes.
struct FrameView {
  std::uint16_t version = 0;
  std::uint16_t type = 0;
  const std::uint8_t* payload = nullptr;
  std::size_t payload_size = 0;
};

/// Wrap an encoded message into one wire frame (length prefix + trailing
/// FNV-1a checksum over version + type + payload).
template <typename Msg>
std::vector<std::uint8_t> encode_frame(const Msg& msg) {
  WireWriter w;
  w.u32(0);  // len, patched once the payload size is known
  w.u16(kWireVersion);
  w.u16(static_cast<std::uint16_t>(Msg::kType));
  write_field(w, msg);
  std::vector<std::uint8_t> frame = w.take();
  const auto len = static_cast<std::uint32_t>(frame.size() - 4 + kFrameChecksumBytes);
  std::memcpy(frame.data(), &len, sizeof len);
  const std::uint64_t sum = util::fnv1a64_bytes(frame.data() + 4, frame.size() - 4);
  const std::size_t at = frame.size();
  frame.resize(at + kFrameChecksumBytes);
  std::memcpy(frame.data() + at, &sum, sizeof sum);  // same layout as WireWriter::u64
  return frame;
}

/// Parse a frame BODY (the `len` bytes after the length prefix: version +
/// type + payload + checksum).  Rejects version, then the checksum, then
/// the type, before touching the payload; `out.payload` excludes the
/// verified trailer.
WireStatus parse_body(const std::uint8_t* data, std::size_t size, FrameView& out);

/// Parse one complete frame (length prefix included), e.g. a captured
/// buffer in tests.  Checks the length prefix against the actual size.
WireStatus parse_frame(const std::uint8_t* data, std::size_t size, FrameView& out);

/// Decode a specific message from a parsed frame: wrong-type and
/// trailing-byte detection included.
template <typename Msg>
WireStatus decode_message(const FrameView& frame, Msg& out) {
  if (frame.type != static_cast<std::uint16_t>(Msg::kType)) return WireStatus::kWrongType;
  WireReader r(frame.payload, frame.payload_size);
  const WireStatus status = read_field(r, out);
  if (status != WireStatus::kOk) return status;
  if (r.remaining() != 0) return WireStatus::kTrailingBytes;
  return WireStatus::kOk;
}

/// One-shot: parse a full frame and decode the expected message.
template <typename Msg>
WireStatus decode_frame(const std::uint8_t* data, std::size_t size, Msg& out) {
  FrameView frame;
  const WireStatus status = parse_frame(data, size, frame);
  if (status != WireStatus::kOk) return status;
  return decode_message(frame, out);
}

}  // namespace bellamy::net
