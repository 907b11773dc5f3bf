//! Fixture checkpoint codec that reads v2..=v5.

const MAGIC: u32 = 0x414E_5441;
const VERSION: u32 = 5;
const MIN_VERSION: u32 = 2;
