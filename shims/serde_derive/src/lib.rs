//! No-op `#[derive(Serialize)]` / `#[derive(Deserialize)]` macros for the
//! offline `serde` stand-in.
//!
//! The workspace derives these traits on its public types for downstream
//! compatibility but never serialises through serde itself (structured
//! export goes through `msvs-telemetry`'s hand-rolled JSON). The stand-in
//! `serde` crate blanket-implements its marker traits, so these derives
//! only need to exist — they expand to nothing.

use proc_macro::TokenStream;

/// Expands to nothing; `serde::Serialize` is blanket-implemented.
#[proc_macro_derive(Serialize)]
pub fn derive_serialize(_item: TokenStream) -> TokenStream {
    TokenStream::new()
}

/// Expands to nothing; `serde::Deserialize` is blanket-implemented.
#[proc_macro_derive(Deserialize)]
pub fn derive_deserialize(_item: TokenStream) -> TokenStream {
    TokenStream::new()
}
