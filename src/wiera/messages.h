// Wiera's RPC surface (peer<->peer and controller<->peer): one struct per
// message and one rpc::Method line per method, naming its request and
// response. Each struct's `wire_fields` is its layout, in wire order;
// rpc::encode / rpc::decode<T> (rpc/rpc.h) derive both directions from it.
// Everything crossing the simulated network is serialized this way, so
// message sizes (and thus transfer time and egress cost) reflect payloads.
#pragma once

#include <string>
#include <tuple>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "common/time.h"
#include "rpc/rpc.h"
#include "rpc/wire.h"
#include "wiera/types.h"

namespace wiera::geo {


struct PutRequest {
  std::string key;
  Blob value;
  std::string client;  // originating client/instance id (for monitors)
  bool forwarded = false;
  bool direct = false;   // O_DIRECT from the VFS layer (§5.4)
  int64_t version = 0;   // Table 2 update(): write this exact version
  // End-to-end payload checksum: object_checksum(key, version, value)
  // computed by the client before the bytes leave it. The serving peer
  // recomputes and rejects the put when they disagree (corrupted in
  // transit) instead of durably storing a bad payload. 0 = not provided.
  uint64_t checksum = 0;
  // Absolute deadline, copied from the rpc::Message frame by
  // rpc::Endpoint::serve (not part of the wire body). TimePoint::max() =
  // none.
  TimePoint deadline = TimePoint::max();
  // Trace identity of the handling server span, also copied from the frame
  // (not wire body); parent for downstream spans.
  TraceContext trace;

  template <class Self>
  static auto wire_fields(Self& m) {
    return std::tie(m.key, m.value, m.client, m.forwarded, m.direct,
                    m.version, m.checksum);
  }
};

struct PutResponse {
  int64_t version = 0;
  // object_checksum(key, version, value) as recorded by the serving peer.
  // The client recomputes it over the bytes it sent and the version it was
  // assigned; a mismatch means the response (or its version field) was
  // corrupted in transit. 0 = not provided.
  uint64_t checksum = 0;

  template <class Self>
  static auto wire_fields(Self& m) { return std::tie(m.version, m.checksum); }
};

struct GetRequest {
  std::string key;
  int64_t version = 0;  // 0 = latest
  std::string client;
  bool direct = false;  // O_DIRECT from the VFS layer (§5.4)
  // Request-integrity checksum over (key, version, client). Without it a
  // request whose key was garbled in transit would be answered as a clean
  // miss (or worse, another object's bytes); the serving peer verifies and
  // rejects kDataLoss instead. 0 = not provided (internal forwards).
  uint64_t checksum = 0;
  // Frame metadata, not wire body: see PutRequest::deadline and ::trace.
  TimePoint deadline = TimePoint::max();
  TraceContext trace;

  template <class Self>
  static auto wire_fields(Self& m) {
    return std::tie(m.key, m.version, m.client, m.direct, m.checksum);
  }
};

struct GetResponse {
  Blob value;
  int64_t version = 0;
  std::string served_by;
  // Graceful degradation (docs/OVERLOAD.md): true when the serving instance
  // answered from its local copy while unable to prove freshness (lease
  // lapsed / primary unreachable) under a BoundedStaleness policy. Clients
  // and the consistency oracle must treat such reads as possibly stale.
  bool stale = false;
  // object_checksum(key, version, value) as recorded by the serving peer;
  // the client recomputes it over the delivered bytes (it knows the key it
  // asked for) and surfaces kDataLoss on mismatch. 0 = not provided.
  uint64_t checksum = 0;

  template <class Self>
  static auto wire_fields(Self& m) {
    return std::tie(m.value, m.version, m.served_by, m.stale, m.checksum);
  }
};

struct ReplicateRequest {
  std::string key;
  int64_t version = 0;
  Blob value;
  TimePoint last_modified;
  std::string origin;
  // object_checksum(key, version, value) at the sender. Receivers verify
  // before applying and reject kDataLoss on mismatch, so a payload that was
  // bit-flipped in transit never lands in a replica. 0 = not provided.
  uint64_t checksum = 0;

  template <class Self>
  static auto wire_fields(Self& m) {
    return std::tie(m.key, m.version, m.value, m.last_modified, m.origin,
                    m.checksum);
  }
};

struct ReplicateResponse {
  bool accepted = false;

  template <class Self>
  static auto wire_fields(Self& m) { return std::tie(m.accepted); }
};

// Coalesced replication: every update queued for one target in one flush
// round, in one wire message. Each op carries its own checksum and is
// verified/applied independently on the receiver — a corrupt op must not
// poison its batch-mates.
struct ReplicateBatchRequest {
  std::vector<ReplicateRequest> ops;

  template <class Self>
  static auto wire_fields(Self& m) { return std::tie(m.ops); }
};

// Parallel to ReplicateBatchRequest::ops: the per-op outcome. The sender
// requeues exactly the ops that failed; wholesale batch retry would
// re-apply (and re-count) updates the receiver already accepted.
struct ReplicateBatchResult {
  StatusCode code = StatusCode::kOk;
  bool accepted = false;

  template <class Self>
  static auto wire_fields(Self& m) { return std::tie(m.code, m.accepted); }
};

struct ReplicateBatchResponse {
  std::vector<ReplicateBatchResult> results;

  template <class Self>
  static auto wire_fields(Self& m) { return std::tie(m.results); }
};

struct SetConsistencyRequest {
  ConsistencyMode mode = ConsistencyMode::kMultiPrimaries;

  template <class Self>
  static auto wire_fields(Self& m) { return std::tie(m.mode); }
};

struct SetPrimaryRequest {
  std::string primary_instance;

  template <class Self>
  static auto wire_fields(Self& m) { return std::tie(m.primary_instance); }
};

// Table 2: getVersionList / remove / removeVersion.
struct VersionListResponse {
  std::vector<int64_t> versions;

  template <class Self>
  static auto wire_fields(Self& m) { return std::tie(m.versions); }
};

struct RemoveRequest {
  std::string key;
  int64_t version = 0;      // 0 = all versions (remove), else removeVersion
  bool propagate = true;    // false on replica-to-replica fan-out
  TimePoint deadline = TimePoint::max();  // frame metadata, not wire body
  TraceContext trace;                     // frame metadata, not wire body

  template <class Self>
  static auto wire_fields(Self& m) {
    return std::tie(m.key, m.version, m.propagate);
  }
};

// Catch-up resync (recovery after crash/partition): the source answers an
// empty request with its latest committed version of every key, as
// replication entries the puller merges through LWW.
struct SyncPullResponse {
  std::vector<ReplicateRequest> entries;

  template <class Self>
  static auto wire_fields(Self& m) { return std::tie(m.entries); }
};

// ---- integrity scrub / repair (docs/INTEGRITY.md) ----

// One digest row: the latest committed version of a key plus its recorded
// checksum. Checksums are recomputed locally at write-apply time, so two
// healthy replicas holding the same (key, version, payload) report the same
// digest — a mismatch means silent divergence (bit rot / torn write).
struct ScrubDigest {
  std::string key;
  int64_t version = 0;
  uint64_t checksum = 0;

  template <class Self>
  static auto wire_fields(Self& m) {
    return std::tie(m.key, m.version, m.checksum);
  }
};

// The answer to an empty digest request: one row per local key.
struct ScrubDigestResponse {
  std::vector<ScrubDigest> entries;

  template <class Self>
  static auto wire_fields(Self& m) { return std::tie(m.entries); }
};

// Fetch one (key, version) with payload + checksum from a healthy replica to
// replace a quarantined local copy. version 0 = latest committed. The
// response reuses ReplicateRequest (same fields; merged through LWW).
struct RepairFetchRequest {
  std::string key;
  int64_t version = 0;

  template <class Self>
  static auto wire_fields(Self& m) { return std::tie(m.key, m.version); }
};

// ---- control plane (WUI) ----

// A peer monitor's run-time change request to the controller's WUI: the
// new consistency policy's name, or the new primary's instance id.
struct ChangeRequest {
  std::string wiera_id;
  std::string target;

  template <class Self>
  static auto wire_fields(Self& m) { return std::tie(m.wiera_id, m.target); }
};

struct LeaseRenewRequest {
  std::string instance_id;

  template <class Self>
  static auto wire_fields(Self& m) { return std::tie(m.instance_id); }
};

// ---- RPC methods: each one's name, request and response ----
namespace method {
inline constexpr rpc::Method<PutRequest, PutResponse> kClientPut{
    "peer.client_put"};
inline constexpr rpc::Method<GetRequest, GetResponse> kClientGet{
    "peer.client_get"};
inline constexpr rpc::Method<PutRequest, PutResponse> kForwardPut{
    "peer.forward_put"};
inline constexpr rpc::Method<GetRequest, GetResponse> kForwardGet{
    "peer.forward_get"};
inline constexpr rpc::Method<ReplicateRequest, ReplicateResponse> kReplicate{
    "peer.replicate"};
// Coalesced replication (docs/PERFORMANCE.md): one wire message carrying a
// batch of queued updates for one target — flushed on size or deadline.
inline constexpr rpc::Method<ReplicateBatchRequest, ReplicateBatchResponse>
    kReplicateBatch{"peer.replicate_batch"};
inline constexpr rpc::Method<SetConsistencyRequest, rpc::Ack> kSetConsistency{
    "peer.set_consistency"};
inline constexpr rpc::Method<SetPrimaryRequest, rpc::Ack> kSetPrimary{
    "peer.set_primary"};
inline constexpr rpc::Method<rpc::Empty, rpc::Ack> kPing{"peer.ping"};
// §5.3 centralized cold data: ship one object to the cold-storage peer, and
// read it back from there.
inline constexpr rpc::Method<ReplicateRequest, rpc::Ack> kColdStore{
    "peer.cold_store"};
inline constexpr rpc::Method<GetRequest, GetResponse> kColdFetch{
    "peer.cold_fetch"};
// Table 2 versioning API.
inline constexpr rpc::Method<GetRequest, VersionListResponse> kVersionList{
    "peer.version_list"};
inline constexpr rpc::Method<RemoveRequest, rpc::Ack> kRemove{"peer.remove"};
// Catch-up resync after crash/partition recovery: pull every key's latest
// committed version from a healthy peer.
inline constexpr rpc::Method<rpc::Empty, SyncPullResponse> kSyncPull{
    "peer.sync_pull"};
// Integrity scrub (docs/INTEGRITY.md): exchange per-key checksum digests of
// the latest committed versions so replicas can detect silent divergence.
inline constexpr rpc::Method<rpc::Empty, ScrubDigestResponse> kScrubDigest{
    "peer.scrub_digest"};
// Read-repair / scrub-repair: fetch one (key, version) with its payload and
// checksum from a healthy replica to replace a quarantined local copy.
inline constexpr rpc::Method<RepairFetchRequest, ReplicateRequest>
    kRepairFetch{"peer.repair_fetch"};
// Serve-lease renewal: a peer proves round-trip reachability to the
// controller. The controller records the renewal time and will not narrow
// replication membership around a peer whose lease could still be valid —
// that ordering is what makes the lease sound.
inline constexpr rpc::Method<LeaseRenewRequest, rpc::Ack> kLeaseRenew{
    "wui.lease_renew"};
}  // namespace method

using rpc::decode;
using rpc::encode;

// Kept by name for the host benchmark (perfbench/wiera_bench.cpp).
inline Result<PutRequest> decode_put_request(const rpc::Message& msg) {
  return decode<PutRequest>(msg);
}

}  // namespace wiera::geo

// Every message above. codec.cpp compiles each one's rpc::encode and
// rpc::decode once; the extern declarations below make callers call that
// copy instead of instantiating their own. Instantiated inside a large
// unit such as micro_bench.cpp, whose inline budget is spent, the codec
// compiled to slower code than in a small one (ROADMAP item 1).
#define WIERA_GEO_MESSAGES(X)                                               \
  X(PutRequest) X(PutResponse) X(GetRequest) X(GetResponse)                \
  X(ReplicateRequest) X(ReplicateResponse) X(ReplicateBatchRequest)        \
  X(ReplicateBatchResponse) X(SetConsistencyRequest) X(SetPrimaryRequest)  \
  X(VersionListResponse) X(RemoveRequest) X(SyncPullResponse)              \
  X(ScrubDigestResponse) X(RepairFetchRequest) X(ChangeRequest)            \
  X(LeaseRenewRequest)

namespace wiera::rpc {
#define WIERA_GEO_EXTERN_CODEC(T)                \
  extern template Message encode(const geo::T&); \
  extern template Result<geo::T> decode<geo::T>(const Message&);
WIERA_GEO_MESSAGES(WIERA_GEO_EXTERN_CODEC)
#undef WIERA_GEO_EXTERN_CODEC
}  // namespace wiera::rpc
