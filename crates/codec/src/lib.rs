//! # tad-codec
//!
//! The byte layer under every persisted and wire format of the workspace,
//! and the bottom of its crate graph (it depends on `bytes` alone):
//!
//! * [`envelope`] — magic + version + length-prefixed payload + FNV-1a 64
//!   checksum. [`seal_envelope`] writes one ([`seal_envelope_into`]
//!   appends it to a buffer the caller owns, for the paths that move many
//!   small envelopes); [`envelope_payload`] verifies one and lends back
//!   its payload as a slice of the input, so opening copies nothing.
//! * [`Reader`] — the checked cursor a decoder walks that payload with.
//!   Its typed reads are the only place a length is compared against what
//!   is left, so "hostile bytes are a typed error, never a panic" is a
//!   property of this crate, not of each decoder's discipline.
//!
//! A format's decoder is `envelope_payload` → `Reader` reads →
//! [`Reader::finish`], with both layers' failures folded into the
//! format's own error enum by [`codec_error_from!`].

#![deny(missing_docs)]

pub mod envelope;
mod reader;

pub use envelope::{
    checksum64, envelope_payload, seal_envelope, seal_envelope_into, EnvelopeError,
    ENVELOPE_HEADER_LEN,
};
pub use reader::{ReadError, Reader};

/// Implements `From<`[`EnvelopeError`]`>` and `From<`[`ReadError`]`>` for a
/// format's error enum, so `?` carries either layer's failure into the one
/// taxonomy callers of that format see. The enum must have the variants
/// `BadMagic`, `BadVersion(u16)`, `Truncated(&'static str)`,
/// `ChecksumMismatch` and `Malformed(&'static str)`; bytes after the
/// checksum become `Malformed("trailing bytes after checksum")`.
#[macro_export]
macro_rules! codec_error_from {
    ($error:ident) => {
        impl From<$crate::EnvelopeError> for $error {
            fn from(e: $crate::EnvelopeError) -> Self {
                match e {
                    $crate::EnvelopeError::BadMagic => $error::BadMagic,
                    $crate::EnvelopeError::BadVersion(v) => $error::BadVersion(v),
                    $crate::EnvelopeError::Truncated(what) => $error::Truncated(what),
                    $crate::EnvelopeError::ChecksumMismatch => $error::ChecksumMismatch,
                    $crate::EnvelopeError::TrailingBytes => {
                        $error::Malformed("trailing bytes after checksum")
                    }
                }
            }
        }

        impl From<$crate::ReadError> for $error {
            fn from(e: $crate::ReadError) -> Self {
                match e {
                    $crate::ReadError::Truncated(what) => $error::Truncated(what),
                    $crate::ReadError::Malformed(what) => $error::Malformed(what),
                }
            }
        }
    };
}
