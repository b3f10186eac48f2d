//! Typed slab-store errors.
//!
//! Mirrors the checkpoint-validation philosophy of `louvain-resil`: every
//! way a slab file can be wrong is a distinct variant, so callers (and the
//! CLI) can report *what* is corrupt, not just "invalid data".

use std::fmt;
use std::io;

use louvain_graph::ingest::IngestError;

/// Why a slab file could not be built, opened, or range-loaded.
#[derive(Debug)]
pub enum StoreError {
    /// The file ends before a section (or the header) does.
    Truncated {
        what: &'static str,
        need: u64,
        have: u64,
    },
    /// The leading magic does not carry the slab signature.
    BadMagic {
        found: u64,
    },
    /// Signature recognized but the format version byte is not ours.
    BadVersion {
        found: u8,
    },
    /// The file is an `LVGRBPH1` binary edge list, a format no longer
    /// read or written.
    RetiredFormat,
    /// A section's stored checksum does not match its bytes.
    ChecksumMismatch {
        section: &'static str,
        expect: u64,
        found: u64,
    },
    /// A section offset violates the 64-byte alignment rule.
    MisalignedSection {
        section: &'static str,
        offset: u64,
    },
    /// Internally inconsistent metadata (section lengths vs. counts,
    /// overlapping sections, bad section count, ...).
    Corrupt {
        what: String,
    },
    /// An edge failed ingestion validation while streaming into a builder.
    Ingest(IngestError),
    Io(io::Error),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Truncated { what, need, have } => {
                write!(f, "truncated slab file: {what} needs {need} bytes, have {have}")
            }
            StoreError::BadMagic { found } => {
                write!(f, "bad magic: {found:#018x} is not a slab file")
            }
            StoreError::BadVersion { found } => write!(
                f,
                "unsupported slab format version {:?}: this build reads version {:?}; \
                 re-ingest the graph",
                *found as char,
                crate::layout::FORMAT_VERSION as char
            ),
            StoreError::RetiredFormat => write!(
                f,
                "LVGRBPH1 binary edge lists are no longer read: regenerate the graph \
                 with `louvain generate`, or build a slab from its text form with \
                 `louvain ingest`"
            ),
            StoreError::ChecksumMismatch {
                section,
                expect,
                found,
            } => write!(
                f,
                "checksum mismatch in section {section}: header says {expect:#018x}, bytes hash to {found:#018x}"
            ),
            StoreError::MisalignedSection { section, offset } => {
                write!(f, "section {section} at offset {offset} violates 64-byte alignment")
            }
            StoreError::Corrupt { what } => write!(f, "corrupt slab: {what}"),
            StoreError::Ingest(e) => write!(f, "{e}"),
            StoreError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<IngestError> for StoreError {
    fn from(e: IngestError) -> Self {
        match e {
            IngestError::Io(inner) => StoreError::Io(inner),
            other => StoreError::Ingest(other),
        }
    }
}

impl From<StoreError> for io::Error {
    fn from(e: StoreError) -> Self {
        match e {
            StoreError::Io(inner) => inner,
            other => io::Error::new(io::ErrorKind::InvalidData, other.to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_defect() {
        let cases: Vec<(StoreError, &str)> = vec![
            (
                StoreError::Truncated {
                    what: "header",
                    need: 192,
                    have: 10,
                },
                "truncated",
            ),
            (StoreError::BadMagic { found: 0xdead }, "bad magic"),
            (
                StoreError::BadVersion { found: b'1' },
                "slab format version '1'",
            ),
            (StoreError::RetiredFormat, "louvain ingest"),
            (
                StoreError::ChecksumMismatch {
                    section: "targets",
                    expect: 1,
                    found: 2,
                },
                "checksum mismatch",
            ),
            (
                StoreError::MisalignedSection {
                    section: "weights",
                    offset: 7,
                },
                "alignment",
            ),
            (
                StoreError::Corrupt {
                    what: "overlapping sections".into(),
                },
                "corrupt",
            ),
        ];
        for (e, needle) in cases {
            assert!(e.to_string().contains(needle), "{e}");
        }
    }

    #[test]
    fn converts_to_io_invalid_data() {
        let e: io::Error = StoreError::BadMagic { found: 0 }.into();
        assert_eq!(e.kind(), io::ErrorKind::InvalidData);
        let passthrough: io::Error =
            StoreError::Io(io::Error::new(io::ErrorKind::NotFound, "gone")).into();
        assert_eq!(passthrough.kind(), io::ErrorKind::NotFound);
    }

    #[test]
    fn ingest_io_unwraps_to_io() {
        let inner = IngestError::Io(io::Error::new(io::ErrorKind::NotFound, "gone"));
        assert!(matches!(StoreError::from(inner), StoreError::Io(_)));
        let typed = IngestError::SelfLoop { v: 3, line: 0 };
        assert!(matches!(StoreError::from(typed), StoreError::Ingest(_)));
    }
}
