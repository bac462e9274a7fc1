//! `servebench`: the end-to-end serving benchmark.
//!
//! Starts two `gpp-serve` shards behind one `gpp-gateway` in process,
//! drives seeded traffic over real TCP sockets, checks every reply
//! against an in-process reference, and prints the metrics named in
//! `BENCHMARK.json`. A traced run (`--trace 1`) replays the same requests
//! through each layer's public functions and reports per-layer numbers.

pub mod drive;
pub mod fleet;
pub mod gen;
pub mod json;
pub mod trace;
pub mod workload;
