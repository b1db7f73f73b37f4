// Wire codecs for Wiera's RPC surface (peer<->peer and controller<->peer).
//
// Everything crossing the simulated network is serialized through these, so
// message sizes (and thus transfer time and egress cost) reflect payloads.
#pragma once

#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "common/time.h"
#include "rpc/rpc.h"
#include "rpc/wire.h"
#include "wiera/types.h"

namespace wiera::geo {

// RPC method names.
namespace method {
inline constexpr char kClientPut[] = "peer.client_put";
inline constexpr char kClientGet[] = "peer.client_get";
inline constexpr char kForwardPut[] = "peer.forward_put";
inline constexpr char kForwardGet[] = "peer.forward_get";
inline constexpr char kReplicate[] = "peer.replicate";
// Coalesced replication (docs/PERFORMANCE.md): one wire message carrying a
// batch of queued updates for one target — flushed on size or deadline.
inline constexpr char kReplicateBatch[] = "peer.replicate_batch";
inline constexpr char kSetConsistency[] = "peer.set_consistency";
inline constexpr char kSetPrimary[] = "peer.set_primary";
inline constexpr char kPing[] = "peer.ping";
inline constexpr char kColdStore[] = "peer.cold_store";
inline constexpr char kColdFetch[] = "peer.cold_fetch";
// Table 2 versioning API.
inline constexpr char kVersionList[] = "peer.version_list";
inline constexpr char kRemove[] = "peer.remove";
inline constexpr char kRemoveVersion[] = "peer.remove_version";
// Catch-up resync after crash/partition recovery: pull every key's latest
// committed version from a healthy peer.
inline constexpr char kSyncPull[] = "peer.sync_pull";
// Integrity scrub (docs/INTEGRITY.md): exchange per-key checksum digests of
// the latest committed versions so replicas can detect silent divergence.
inline constexpr char kScrubDigest[] = "peer.scrub_digest";
// Read-repair / scrub-repair: fetch one (key, version) with its payload and
// checksum from a healthy replica to replace a quarantined local copy.
inline constexpr char kRepairFetch[] = "peer.repair_fetch";
// Serve-lease renewal: a peer proves round-trip reachability to the
// controller (body = instance id). The controller records the renewal time
// and will not narrow replication membership around a peer whose lease
// could still be valid — that ordering is what makes the lease sound.
inline constexpr char kLeaseRenew[] = "wui.lease_renew";
}  // namespace method

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
  // Absolute deadline, copied by handlers from the rpc::Message frame (not
  // part of the wire body). TimePoint::max() = none.
  TimePoint deadline = TimePoint::max();
  // Trace identity of the handling server span, copied by handlers from the
  // rpc::Message frame (not wire body); parent for downstream spans.
  TraceContext trace;
};

struct PutResponse {
  int64_t version = 0;
  // object_checksum(key, version, value) as recorded by the serving peer.
  // The client recomputes it over the bytes it sent and the version it was
  // assigned; a mismatch means the response (or its version field) was
  // corrupted in transit. 0 = not provided.
  uint64_t checksum = 0;
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
  // Absolute deadline, copied by handlers from the rpc::Message frame (not
  // part of the wire body). TimePoint::max() = none.
  TimePoint deadline = TimePoint::max();
  // Trace identity of the handling server span (frame metadata, see
  // PutRequest::trace).
  TraceContext trace;
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
};

struct ReplicateResponse {
  bool accepted = false;
};

// Coalesced replication: every update queued for one target in one flush
// round, in one wire message. Each op carries its own checksum and is
// verified/applied independently on the receiver — a corrupt op must not
// poison its batch-mates.
struct ReplicateBatchRequest {
  std::string origin;
  std::vector<ReplicateRequest> ops;
};

// Parallel to ReplicateBatchRequest::ops: the per-op outcome. The sender
// requeues exactly the ops that failed; wholesale batch retry would
// re-apply (and re-count) updates the receiver already accepted.
struct ReplicateBatchResult {
  StatusCode code = StatusCode::kOk;
  bool accepted = false;
};

struct ReplicateBatchResponse {
  std::vector<ReplicateBatchResult> results;
};

struct SetConsistencyRequest {
  ConsistencyMode mode = ConsistencyMode::kMultiPrimaries;
};

struct SetPrimaryRequest {
  std::string primary_instance;
};

// Table 2: getVersionList / remove / removeVersion.
struct VersionListResponse {
  std::vector<int64_t> versions;
};

struct RemoveRequest {
  std::string key;
  int64_t version = 0;      // 0 = all versions (remove), else removeVersion
  bool propagate = true;    // false on replica-to-replica fan-out
  TimePoint deadline = TimePoint::max();  // frame metadata, not wire body
  TraceContext trace;                     // frame metadata, not wire body
};

// Catch-up resync (recovery after crash/partition): the source answers with
// its latest committed version of every key, as replication entries the
// puller merges through LWW.
struct SyncPullRequest {
  std::string requester;
};

struct SyncPullResponse {
  std::vector<ReplicateRequest> entries;
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
};

struct ScrubDigestRequest {
  std::string requester;
};

struct ScrubDigestResponse {
  std::vector<ScrubDigest> entries;
};

// Fetch one (key, version) with payload + checksum from a healthy replica to
// replace a quarantined local copy. version 0 = latest committed. The
// response reuses ReplicateRequest (same fields; merged through LWW).
struct RepairFetchRequest {
  std::string key;
  int64_t version = 0;
};

// ---- encode/decode ----

rpc::Message encode(const PutRequest& m);
Result<PutRequest> decode_put_request(const rpc::Message& msg);
rpc::Message encode(const PutResponse& m);
Result<PutResponse> decode_put_response(const rpc::Message& msg);

rpc::Message encode(const GetRequest& m);
Result<GetRequest> decode_get_request(const rpc::Message& msg);
rpc::Message encode(const GetResponse& m);
Result<GetResponse> decode_get_response(const rpc::Message& msg);

rpc::Message encode(const ReplicateRequest& m);
Result<ReplicateRequest> decode_replicate_request(const rpc::Message& msg);
rpc::Message encode(const ReplicateResponse& m);
Result<ReplicateResponse> decode_replicate_response(const rpc::Message& msg);

rpc::Message encode(const ReplicateBatchRequest& m);
Result<ReplicateBatchRequest> decode_replicate_batch_request(
    const rpc::Message& msg);
rpc::Message encode(const ReplicateBatchResponse& m);
Result<ReplicateBatchResponse> decode_replicate_batch_response(
    const rpc::Message& msg);

rpc::Message encode(const SetConsistencyRequest& m);
Result<SetConsistencyRequest> decode_set_consistency(const rpc::Message& msg);
rpc::Message encode(const SetPrimaryRequest& m);
Result<SetPrimaryRequest> decode_set_primary(const rpc::Message& msg);

rpc::Message encode(const VersionListResponse& m);
Result<VersionListResponse> decode_version_list(const rpc::Message& msg);
rpc::Message encode(const RemoveRequest& m);
Result<RemoveRequest> decode_remove_request(const rpc::Message& msg);

rpc::Message encode(const SyncPullRequest& m);
Result<SyncPullRequest> decode_sync_pull_request(const rpc::Message& msg);
rpc::Message encode(const SyncPullResponse& m);
Result<SyncPullResponse> decode_sync_pull_response(const rpc::Message& msg);

rpc::Message encode(const ScrubDigestRequest& m);
Result<ScrubDigestRequest> decode_scrub_digest_request(const rpc::Message& msg);
rpc::Message encode(const ScrubDigestResponse& m);
Result<ScrubDigestResponse> decode_scrub_digest_response(
    const rpc::Message& msg);
rpc::Message encode(const RepairFetchRequest& m);
Result<RepairFetchRequest> decode_repair_fetch_request(const rpc::Message& msg);

}  // namespace wiera::geo
