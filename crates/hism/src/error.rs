//! Typed errors for HiSM memory-image decoding.
//!
//! A HiSM image is raw hardware-facing memory: backwards pointers, packed
//! `row << 8 | col` positions and lengths vectors, with nothing but
//! convention keeping them consistent. Decoding therefore treats the image
//! as untrusted input and reports the first corruption it finds as an
//! [`ImageError`] carrying the offending *word address* — the same
//! information a hardware walker's trap register would hold.

use std::fmt;

/// A corruption found while walking a HiSM memory image.
///
/// Every variant that concerns a specific image word carries its word
/// address (relative to the image base), so a fault can be traced back to
/// the byte the injector (or the outside world) flipped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ImageError {
    /// The root descriptor declares zero hierarchy levels.
    ZeroLevels,
    /// The root descriptor's section size is outside `2..=256`.
    BadSectionSize(u32),
    /// A blockarray, lengths vector, or entry extends past the image end.
    OutOfBounds {
        /// First word address of the out-of-range access.
        addr: u32,
        /// Image length in words.
        len: u32,
    },
    /// A position word holds coordinates outside the `s x s` block.
    BadPosition {
        /// Word address of the position word.
        addr: u32,
        /// Unpacked row coordinate.
        row: u8,
        /// Unpacked column coordinate.
        col: u8,
        /// Section size the coordinates must stay under.
        s: u32,
    },
    /// A position word places its entry (or, at an upper level, its
    /// child block) outside the `rows x cols` shape the root descriptor
    /// declares.
    OutOfShape {
        /// Word address of the position word.
        addr: u32,
        /// Declared row count.
        rows: u32,
        /// Declared column count.
        cols: u32,
    },
    /// The declared hierarchy holds more entries than the image has room
    /// for — the signature of a pointer cycle or corrupted lengths vector.
    Runaway {
        /// Blockarray address at which the entry budget ran out.
        addr: u32,
    },
    /// A section checksum carried in the image's integrity header does not
    /// match the words actually present — the image was modified after it
    /// was sealed.
    Integrity {
        /// Which section class disagrees (`values`, `pointers`,
        /// `positions`, or `lengths`).
        section: &'static str,
        /// Checksum recorded in the header.
        expect: u64,
        /// Checksum recomputed from the image words.
        got: u64,
    },
}

impl fmt::Display for ImageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ImageError::ZeroLevels => write!(f, "root descriptor declares zero levels"),
            ImageError::BadSectionSize(s) => {
                write!(f, "section size {s} outside the supported 2..=256 range")
            }
            ImageError::OutOfBounds { addr, len } => {
                write!(f, "image read past end: word {addr} of {len}")
            }
            ImageError::BadPosition { addr, row, col, s } => write!(
                f,
                "position ({row},{col}) at word {addr} outside the s={s} block"
            ),
            ImageError::OutOfShape { addr, rows, cols } => write!(
                f,
                "position at word {addr} lies outside the declared {rows}x{cols} matrix"
            ),
            ImageError::Runaway { addr } => write!(
                f,
                "hierarchy at word {addr} larger than the image itself (pointer cycle?)"
            ),
            ImageError::Integrity {
                section,
                expect,
                got,
            } => write!(
                f,
                "integrity: {section} checksum mismatch (header 0x{expect:016x}, image 0x{got:016x})"
            ),
        }
    }
}

impl std::error::Error for ImageError {}
