//! Fixture checkpoint codec one version past the fixture directory:
//! reads v4..=v6.

const MAGIC: u32 = 0x414E_5441;
const VERSION: u32 = 6;
const MIN_VERSION: u32 = 4;
