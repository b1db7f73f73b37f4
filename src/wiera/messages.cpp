#include "wiera/messages.h"

namespace wiera::geo {

rpc::Message encode(const PutRequest& m) {
  rpc::WireWriter w;
  w.put_string(m.key);
  w.put_blob(m.value);
  w.put_string(m.client);
  w.put_bool(m.forwarded);
  w.put_bool(m.direct);
  w.put_i64(m.version);
  w.put_u64(m.checksum);
  return rpc::Message{w.take_body()};
}

Result<PutRequest> decode_put_request(const rpc::Message& msg) {
  rpc::WireReader r(msg.body);
  PutRequest out;
  out.key = r.get_string();
  out.value = r.get_blob();
  out.client = r.get_string();
  out.forwarded = r.get_bool();
  out.direct = r.get_bool();
  out.version = r.get_i64();
  out.checksum = r.get_u64();
  if (!r.ok()) return r.status();
  return out;
}

rpc::Message encode(const PutResponse& m) {
  rpc::WireWriter w;
  w.put_i64(m.version);
  w.put_u64(m.checksum);
  return rpc::Message{w.take_body()};
}

Result<PutResponse> decode_put_response(const rpc::Message& msg) {
  rpc::WireReader r(msg.body);
  PutResponse out;
  out.version = r.get_i64();
  out.checksum = r.get_u64();
  if (!r.ok()) return r.status();
  return out;
}

rpc::Message encode(const GetRequest& m) {
  rpc::WireWriter w;
  w.put_string(m.key);
  w.put_i64(m.version);
  w.put_string(m.client);
  w.put_bool(m.direct);
  w.put_u64(m.checksum);
  return rpc::Message{w.take_body()};
}

Result<GetRequest> decode_get_request(const rpc::Message& msg) {
  rpc::WireReader r(msg.body);
  GetRequest out;
  out.key = r.get_string();
  out.version = r.get_i64();
  out.client = r.get_string();
  out.direct = r.get_bool();
  out.checksum = r.get_u64();
  if (!r.ok()) return r.status();
  return out;
}

rpc::Message encode(const GetResponse& m) {
  rpc::WireWriter w;
  w.put_blob(m.value);
  w.put_i64(m.version);
  w.put_string(m.served_by);
  w.put_bool(m.stale);
  w.put_u64(m.checksum);
  return rpc::Message{w.take_body()};
}

Result<GetResponse> decode_get_response(const rpc::Message& msg) {
  rpc::WireReader r(msg.body);
  GetResponse out;
  out.value = r.get_blob();
  out.version = r.get_i64();
  out.served_by = r.get_string();
  out.stale = r.get_bool();
  out.checksum = r.get_u64();
  if (!r.ok()) return r.status();
  return out;
}

rpc::Message encode(const ReplicateRequest& m) {
  rpc::WireWriter w;
  w.put_string(m.key);
  w.put_i64(m.version);
  w.put_blob(m.value);
  w.put_i64(m.last_modified.us());
  w.put_string(m.origin);
  w.put_u64(m.checksum);
  return rpc::Message{w.take_body()};
}

Result<ReplicateRequest> decode_replicate_request(const rpc::Message& msg) {
  rpc::WireReader r(msg.body);
  ReplicateRequest out;
  out.key = r.get_string();
  out.version = r.get_i64();
  out.value = r.get_blob();
  out.last_modified = TimePoint(r.get_i64());
  out.origin = r.get_string();
  out.checksum = r.get_u64();
  if (!r.ok()) return r.status();
  return out;
}

rpc::Message encode(const ReplicateResponse& m) {
  rpc::WireWriter w;
  w.put_bool(m.accepted);
  return rpc::Message{w.take_body()};
}

Result<ReplicateResponse> decode_replicate_response(const rpc::Message& msg) {
  rpc::WireReader r(msg.body);
  ReplicateResponse out;
  out.accepted = r.get_bool();
  if (!r.ok()) return r.status();
  return out;
}

rpc::Message encode(const ReplicateBatchRequest& m) {
  rpc::WireWriter w;
  w.put_string(m.origin);
  w.put_u32(static_cast<uint32_t>(m.ops.size()));
  for (const ReplicateRequest& e : m.ops) {
    w.put_string(e.key);
    w.put_i64(e.version);
    w.put_blob(e.value);
    w.put_i64(e.last_modified.us());
    w.put_string(e.origin);
    w.put_u64(e.checksum);
  }
  return rpc::Message{w.take_body()};
}

Result<ReplicateBatchRequest> decode_replicate_batch_request(
    const rpc::Message& msg) {
  rpc::WireReader r(msg.body);
  ReplicateBatchRequest out;
  out.origin = r.get_string();
  const uint32_t n = r.get_u32();
  for (uint32_t i = 0; i < n && r.ok(); ++i) {
    ReplicateRequest e;
    e.key = r.get_string();
    e.version = r.get_i64();
    e.value = r.get_blob();
    e.last_modified = TimePoint(r.get_i64());
    e.origin = r.get_string();
    e.checksum = r.get_u64();
    out.ops.push_back(std::move(e));
  }
  if (!r.ok()) return r.status();
  return out;
}

rpc::Message encode(const ReplicateBatchResponse& m) {
  rpc::WireWriter w;
  w.put_u32(static_cast<uint32_t>(m.results.size()));
  for (const ReplicateBatchResult& res : m.results) {
    w.put_u32(static_cast<uint32_t>(res.code));
    w.put_bool(res.accepted);
  }
  return rpc::Message{w.take_body()};
}

Result<ReplicateBatchResponse> decode_replicate_batch_response(
    const rpc::Message& msg) {
  rpc::WireReader r(msg.body);
  ReplicateBatchResponse out;
  const uint32_t n = r.get_u32();
  for (uint32_t i = 0; i < n && r.ok(); ++i) {
    ReplicateBatchResult res;
    res.code = static_cast<StatusCode>(r.get_u32());
    res.accepted = r.get_bool();
    out.results.push_back(res);
  }
  if (!r.ok()) return r.status();
  return out;
}

rpc::Message encode(const SetConsistencyRequest& m) {
  rpc::WireWriter w;
  w.put_u32(static_cast<uint32_t>(m.mode));
  return rpc::Message{w.take_body()};
}

Result<SetConsistencyRequest> decode_set_consistency(const rpc::Message& msg) {
  rpc::WireReader r(msg.body);
  SetConsistencyRequest out;
  out.mode = static_cast<ConsistencyMode>(r.get_u32());
  if (!r.ok()) return r.status();
  return out;
}

rpc::Message encode(const SetPrimaryRequest& m) {
  rpc::WireWriter w;
  w.put_string(m.primary_instance);
  return rpc::Message{w.take_body()};
}

Result<SetPrimaryRequest> decode_set_primary(const rpc::Message& msg) {
  rpc::WireReader r(msg.body);
  SetPrimaryRequest out;
  out.primary_instance = r.get_string();
  if (!r.ok()) return r.status();
  return out;
}

rpc::Message encode(const VersionListResponse& m) {
  rpc::WireWriter w;
  w.put_u32(static_cast<uint32_t>(m.versions.size()));
  for (int64_t v : m.versions) w.put_i64(v);
  return rpc::Message{w.take_body()};
}

Result<VersionListResponse> decode_version_list(const rpc::Message& msg) {
  rpc::WireReader r(msg.body);
  VersionListResponse out;
  const uint32_t n = r.get_u32();
  for (uint32_t i = 0; i < n && r.ok(); ++i) {
    out.versions.push_back(r.get_i64());
  }
  if (!r.ok()) return r.status();
  return out;
}

rpc::Message encode(const RemoveRequest& m) {
  rpc::WireWriter w;
  w.put_string(m.key);
  w.put_i64(m.version);
  w.put_bool(m.propagate);
  return rpc::Message{w.take_body()};
}

Result<RemoveRequest> decode_remove_request(const rpc::Message& msg) {
  rpc::WireReader r(msg.body);
  RemoveRequest out;
  out.key = r.get_string();
  out.version = r.get_i64();
  out.propagate = r.get_bool();
  if (!r.ok()) return r.status();
  return out;
}

rpc::Message encode(const SyncPullRequest& m) {
  rpc::WireWriter w;
  w.put_string(m.requester);
  return rpc::Message{w.take_body()};
}

Result<SyncPullRequest> decode_sync_pull_request(const rpc::Message& msg) {
  rpc::WireReader r(msg.body);
  SyncPullRequest out;
  out.requester = r.get_string();
  if (!r.ok()) return r.status();
  return out;
}

rpc::Message encode(const SyncPullResponse& m) {
  rpc::WireWriter w;
  w.put_u32(static_cast<uint32_t>(m.entries.size()));
  for (const ReplicateRequest& e : m.entries) {
    w.put_string(e.key);
    w.put_i64(e.version);
    w.put_blob(e.value);
    w.put_i64(e.last_modified.us());
    w.put_string(e.origin);
    w.put_u64(e.checksum);
  }
  return rpc::Message{w.take_body()};
}

Result<SyncPullResponse> decode_sync_pull_response(const rpc::Message& msg) {
  rpc::WireReader r(msg.body);
  SyncPullResponse out;
  const uint32_t n = r.get_u32();
  for (uint32_t i = 0; i < n && r.ok(); ++i) {
    ReplicateRequest e;
    e.key = r.get_string();
    e.version = r.get_i64();
    e.value = r.get_blob();
    e.last_modified = TimePoint(r.get_i64());
    e.origin = r.get_string();
    e.checksum = r.get_u64();
    out.entries.push_back(std::move(e));
  }
  if (!r.ok()) return r.status();
  return out;
}

rpc::Message encode(const ScrubDigestRequest& m) {
  rpc::WireWriter w;
  w.put_string(m.requester);
  return rpc::Message{w.take_body()};
}

Result<ScrubDigestRequest> decode_scrub_digest_request(
    const rpc::Message& msg) {
  rpc::WireReader r(msg.body);
  ScrubDigestRequest out;
  out.requester = r.get_string();
  if (!r.ok()) return r.status();
  return out;
}

rpc::Message encode(const ScrubDigestResponse& m) {
  rpc::WireWriter w;
  w.put_u32(static_cast<uint32_t>(m.entries.size()));
  for (const ScrubDigest& d : m.entries) {
    w.put_string(d.key);
    w.put_i64(d.version);
    w.put_u64(d.checksum);
  }
  return rpc::Message{w.take_body()};
}

Result<ScrubDigestResponse> decode_scrub_digest_response(
    const rpc::Message& msg) {
  rpc::WireReader r(msg.body);
  ScrubDigestResponse out;
  const uint32_t n = r.get_u32();
  for (uint32_t i = 0; i < n && r.ok(); ++i) {
    ScrubDigest d;
    d.key = r.get_string();
    d.version = r.get_i64();
    d.checksum = r.get_u64();
    out.entries.push_back(std::move(d));
  }
  if (!r.ok()) return r.status();
  return out;
}

rpc::Message encode(const RepairFetchRequest& m) {
  rpc::WireWriter w;
  w.put_string(m.key);
  w.put_i64(m.version);
  return rpc::Message{w.take_body()};
}

Result<RepairFetchRequest> decode_repair_fetch_request(
    const rpc::Message& msg) {
  rpc::WireReader r(msg.body);
  RepairFetchRequest out;
  out.key = r.get_string();
  out.version = r.get_i64();
  if (!r.ok()) return r.status();
  return out;
}

}  // namespace wiera::geo
