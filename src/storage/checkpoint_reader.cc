#include <cstdint>
#include <cstring>
#include <memory>
#include <string>

#include "common/string_util.h"
#include "storage/checkpoint_format.h"
#include "storage/mmap_file.h"

namespace qarm {
namespace {

Status ParseValueCounts(ByteReader* in,
                        std::vector<std::vector<uint64_t>>* value_counts) {
  uint32_t num_value_vectors = 0;
  QARM_RETURN_NOT_OK(in->ReadU32(&num_value_vectors));
  QARM_RETURN_NOT_OK(in->NeedCount(num_value_vectors, 8));
  value_counts->resize(num_value_vectors);
  for (std::vector<uint64_t>& counts : *value_counts) {
    uint64_t num_values = 0;
    QARM_RETURN_NOT_OK(in->ReadU64(&num_values));
    QARM_RETURN_NOT_OK(in->ReadU64Array(num_values, &counts));
  }
  return Status::OK();
}

Status ParseCatalogSection(ByteReader* in, CheckpointCatalog* catalog) {
  QARM_RETURN_NOT_OK(in->ReadU64(&catalog->num_records));
  QARM_RETURN_NOT_OK(in->ReadU64(&catalog->items_pruned_by_interest));
  uint64_t num_items = 0;
  QARM_RETURN_NOT_OK(in->ReadU64(&num_items));
  QARM_RETURN_NOT_OK(in->NeedCount(num_items, 3 * 4 + 8));
  QARM_RETURN_NOT_OK(in->ReadI32Array(num_items * 3, &catalog->item_words));
  QARM_RETURN_NOT_OK(in->ReadU64Array(num_items, &catalog->item_counts));
  return ParseValueCounts(in, &catalog->value_counts);
}

Status ParsePayload(const uint8_t* data, size_t size, uint32_t version,
                    CheckpointState* state) {
  // Decode failures are InvalidArgument (a corrupt file the caller must
  // not trust); only a checksum mismatch is an IOError.
  ByteReader in(data, size, StatusCode::kInvalidArgument,
                "checkpoint payload");
  QARM_RETURN_NOT_OK(in.ReadU64(&state->fingerprint));
  QARM_RETURN_NOT_OK(in.ReadU64(&state->num_rows));
  QARM_RETURN_NOT_OK(in.ReadU32(&state->num_attributes));
  if (version >= 2) {
    QARM_RETURN_NOT_OK(in.ReadU32(&state->flags));
    QARM_RETURN_NOT_OK(in.ReadU64(&state->options_fingerprint));
    QARM_RETURN_NOT_OK(in.ReadU64(&state->base_num_blocks));
    QARM_RETURN_NOT_OK(in.ReadU32(&state->base_index_crc));
  }

  CheckpointCatalog& catalog = state->catalog;
  QARM_RETURN_NOT_OK(ParseCatalogSection(&in, &catalog));
  if (catalog.value_counts.size() != state->num_attributes) {
    return Status::InvalidArgument(StrFormat(
        "checkpoint has %zu value-count vectors for %u attributes",
        catalog.value_counts.size(), state->num_attributes));
  }

  uint32_t num_passes = 0;
  QARM_RETURN_NOT_OK(in.ReadU32(&num_passes));
  QARM_RETURN_NOT_OK(in.NeedCount(num_passes, 4 + 8 + 8));
  state->passes.resize(num_passes);
  for (CheckpointPass& pass : state->passes) {
    QARM_RETURN_NOT_OK(in.ReadU32(&pass.k));
    if (pass.k == 0) {
      return Status::InvalidArgument("checkpoint pass has k == 0");
    }
    QARM_RETURN_NOT_OK(in.ReadU64(&pass.num_candidates));
    uint64_t num_frequent = 0;
    QARM_RETURN_NOT_OK(in.ReadU64(&num_frequent));
    // Each itemset costs k * 4 bytes of ids plus 8 bytes of count.
    QARM_RETURN_NOT_OK(
        in.NeedCount(num_frequent, static_cast<size_t>(pass.k) * 4 + 8));
    QARM_RETURN_NOT_OK(in.ReadI32Array(num_frequent * pass.k, &pass.itemsets));
    QARM_RETURN_NOT_OK(in.ReadU64Array(num_frequent, &pass.counts));
    if (version >= 2) {
      uint64_t num_candidate_counts = 0;
      QARM_RETURN_NOT_OK(in.ReadU64(&num_candidate_counts));
      if (num_candidate_counts != 0 &&
          num_candidate_counts != pass.num_candidates) {
        return Status::InvalidArgument(
            "checkpoint pass candidate counts do not match the candidate "
            "count");
      }
      QARM_RETURN_NOT_OK(
          in.ReadU32Array(num_candidate_counts, &pass.candidate_counts));
    }
  }
  return in.ExpectEnd();
}

}  // namespace

Result<CheckpointCatalog> ParseCheckpointCatalog(const uint8_t* data,
                                                 size_t size) {
  ByteReader in(data, size, StatusCode::kInvalidArgument, "catalog section");
  CheckpointCatalog catalog;
  QARM_RETURN_NOT_OK(ParseCatalogSection(&in, &catalog));
  QARM_RETURN_NOT_OK(in.ExpectEnd());
  return catalog;
}

Result<ShardSnapshot> ParseShardSnapshot(const uint8_t* data, size_t size) {
  ByteReader in(data, size, StatusCode::kInvalidArgument, "shard snapshot");
  const uint8_t* magic = nullptr;
  QARM_RETURN_NOT_OK(in.Take(sizeof(kShardSnapshotMagic), &magic));
  if (std::memcmp(magic, kShardSnapshotMagic, sizeof(kShardSnapshotMagic)) !=
      0) {
    return Status::InvalidArgument("not a QCP shard snapshot (bad magic)");
  }
  uint32_t version = 0;
  QARM_RETURN_NOT_OK(in.ReadU32(&version));
  if (version != kShardSnapshotVersion) {
    return Status::InvalidArgument(StrFormat(
        "unsupported shard snapshot version %u (expected %u)", version,
        kShardSnapshotVersion));
  }
  ShardSnapshot snapshot;
  QARM_RETURN_NOT_OK(in.ReadU64(&snapshot.fingerprint));
  QARM_RETURN_NOT_OK(in.ReadU32(&snapshot.worker_id));
  QARM_RETURN_NOT_OK(in.ReadU64(&snapshot.block_begin));
  QARM_RETURN_NOT_OK(in.ReadU64(&snapshot.block_end));
  QARM_RETURN_NOT_OK(in.ReadU64(&snapshot.num_rows));
  QARM_RETURN_NOT_OK(ParseValueCounts(&in, &snapshot.value_counts));
  QARM_RETURN_NOT_OK(in.ReadU64(&snapshot.blocks_read));
  QARM_RETURN_NOT_OK(in.ReadU64(&snapshot.bytes_read));
  QARM_RETURN_NOT_OK(in.ReadU64(&snapshot.read_retries));
  QARM_RETURN_NOT_OK(in.ReadU64(&snapshot.faults_injected));
  QARM_RETURN_NOT_OK(in.ExpectEnd());
  return snapshot;
}

Result<CheckpointState> ParseCheckpoint(const uint8_t* data, size_t size) {
  QARM_ASSIGN_OR_RETURN(Envelope env,
                        ParseEnvelope(kCheckpointEnvelope, data, size));
  CheckpointState state;
  QARM_RETURN_NOT_OK(
      ParsePayload(env.payload, env.payload_size, env.version, &state));
  return state;
}

Result<CheckpointState> ReadCheckpoint(const std::string& path) {
  // The miner's resume logic branches on NotFound: no checkpoint to resume.
  Result<std::unique_ptr<MmapFile>> file = MmapFile::Open(path);
  if (!file.ok()) {
    return Status::NotFound("checkpoint: " + file.status().message());
  }
  return ParseCheckpoint((*file)->data(), (*file)->size());
}

}  // namespace qarm
