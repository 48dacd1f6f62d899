//! The stream's key identifier.
//!
//! The paper models the input as a sequence of messages `⟨t, k, v⟩`. The
//! partitioning decision depends only on the key, so a stream here is a
//! sequence of keys and a message's position in it is its timestamp.

/// Identifier of a key in the key space.
///
/// The synthetic workloads identify keys by opaque 64-bit identifiers
/// (derived bijectively from the key's rank so that identifiers carry no
/// ordering information a hash function could exploit). Real string keys can
/// be mapped to `KeyId`s by hashing or dictionary-encoding at ingestion.
pub type KeyId = u64;
