/// \file store_serialize.hpp
/// \brief Versioned binary persistence of a GraphStore, following the
/// nn/serialize conventions: magic + fixed-width fields, multi-byte
/// scalars in host byte order (the graph section from graph_io is
/// little-endian), so files are not portable to an opposite-endian host
/// — there they fail cleanly on the magic/checksum validation.
///
/// File layout (version 2; version-1 files, which end after the entry
/// list, still load):
///   uint64  magic "OTGSTOR1"
///   uint32  format version
///   uint32  reserved (zero)
///   payload:
///     int64   next_id          (id counter, so reloads never reuse ids)
///     uint64  entry count
///     entry*: int64 id
///             graph          (canonical binary encoding, graph_io)
///             invariants     (n, m int32; wl_hash uint64;
///                             n int32 labels; n int32 degrees)
///     uint8   has_index      (v2+: always written 0)
///     index:  (only when has_index == 1, as older writers emitted it)
///             int32  wl_prefix_bits (1..64)
///             uint64 node count (== entry count)
///             node*: int64 id, int32 x3     (20 bytes each)
///             uint64 digest
///   uint64  FNV-1a checksum of the payload bytes
///
/// Load validates magic, version and checksum, then *recomputes* every
/// graph's invariants and rejects the file on any mismatch with the
/// stored ones — so a successfully loaded corpus is guaranteed
/// bit-identical to a rebuild from the same graphs, and silent
/// corruption of the graphs cannot slip through.
///
/// The file holds graphs only. An index section written by an older
/// version is checked for a well-formed header and length, then skipped;
/// the engine's index rebuilds from the loaded snapshot on first query.
#ifndef OTGED_SEARCH_STORE_SERIALIZE_HPP_
#define OTGED_SEARCH_STORE_SERIALIZE_HPP_

#include <cstdint>
#include <string>

#include "search/graph_store.hpp"

namespace otged {

inline constexpr uint32_t kStoreFormatVersion = 2;

/// Serializes the store's current snapshot to `path`. Returns false on
/// I/O failure (with `error` describing it).
bool SaveGraphStore(const GraphStore& store, const std::string& path,
                    std::string* error = nullptr);

/// Replaces `store`'s contents with the file's. On any failure (I/O, bad
/// magic/version, checksum mismatch, malformed entries, invariant
/// mismatch, malformed index section) returns false and leaves the store
/// untouched.
bool LoadGraphStore(GraphStore* store, const std::string& path,
                    std::string* error = nullptr);

}  // namespace otged

#endif  // OTGED_SEARCH_STORE_SERIALIZE_HPP_
