//! The line-oriented text codec behind every checkpoint and sealed
//! artifact: the tuner's `heron-checkpoint v3`, the search log's
//! `insight.*` lines inside it, the kernel library's `heron-library v2`
//! and the CSP export's `heron-csp v2`. The job-script and SLO grammars read through its
//! unsealed [`lines`] and [`Tokens`].
//!
//! A document is a header line, then `key = value` lines (blank lines and
//! `#` comments, whole-line or trailing, are ignored), then a footer
//! `crc32 = xxxxxxxx`: the IEEE CRC-32 of every byte before it.
//! [`unseal`] checks the footer *before* it reads anything else, the
//! header included, so a truncated or bit-flipped file is always
//! [`CheckpointError::Corrupt`] and never half-parses into a plausible
//! state. [`save`] writes atomically (temporary sibling, `fsync`,
//! rename), so a crash mid-save leaves the previous file or the new one.
//!
//! Floats are written as the 16 hex digits of their IEEE-754 bits
//! ([`Bits`]), so every value round-trips exactly — a resumed session
//! must reproduce the uninterrupted one to the last bit.
//!
//! ```
//! use heron_trace::kv::{self, Bits, Words};
//!
//! let mut w = kv::Writer::new("demo v1");
//! w.line("best", Bits(1.5));
//! w.line("values", Words(&[4, 16, 2]));
//! let text = w.seal();
//! for entry in kv::unseal(&text, "demo v1").unwrap() {
//!     let e = entry.unwrap();
//!     match e.key {
//!         "best" => assert_eq!(e.bits(e.value).unwrap(), 1.5),
//!         _ => assert_eq!(e.tokens().rest::<i64>().unwrap(), [4, 16, 2]),
//!     }
//! }
//! ```

use std::fmt::{self, Display, Write as _};
use std::io::Write as _;
use std::path::Path;
use std::str::FromStr;

const FOOTER_KEY: &str = "crc32 = ";

/// Why reading, writing or applying a checkpoint failed.
#[derive(Debug)]
pub enum CheckpointError {
    /// Reading or writing the file failed.
    Io(std::io::Error),
    /// The bytes fail integrity verification (truncated file, bit flip,
    /// invalid UTF-8, missing or mismatching CRC footer). The offset
    /// points at the corrupt region so operators can inspect it.
    Corrupt {
        /// Byte offset of (the start of) the corrupt region.
        offset: usize,
        /// What went wrong.
        message: String,
    },
    /// The file is another version of the expected format (e.g. a
    /// pre-CRC `heron-checkpoint v1`).
    VersionMismatch {
        /// The header found in the file.
        found: String,
        /// The header this build writes and reads.
        expected: String,
    },
    /// The text passed integrity checks but is malformed.
    Parse {
        /// 1-based line number of the offending line.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// The checkpoint is intact but does not belong to the session it
    /// was applied to (wrong workload, platform or solution arity).
    Mismatch(String),
    /// A string the format cannot carry unchanged ([`value`], [`word`]):
    /// refused when writing, so reading never gives back a mangled one.
    Unwritable(String),
}

impl Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::Corrupt { offset, message } => {
                write!(f, "checkpoint corrupt at byte offset {offset}: {message}")
            }
            CheckpointError::VersionMismatch { found, expected } => write!(
                f,
                "checkpoint version mismatch: found `{found}`, this build reads `{expected}`"
            ),
            CheckpointError::Parse { line, message } => {
                write!(f, "checkpoint parse error at line {line}: {message}")
            }
            CheckpointError::Mismatch(msg) => write!(f, "checkpoint mismatch: {msg}"),
            CheckpointError::Unwritable(msg) => write!(f, "checkpoint cannot carry {msg}"),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

type Result<T> = std::result::Result<T, CheckpointError>;

/// IEEE CRC-32 (polynomial `0xEDB88320`, bit-reflected, init/xorout
/// `0xFFFFFFFF`). Bitwise, dependency-free; checkpoints are small, so
/// table-driven speed is not worth the code.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc: u32 = 0xFFFF_FFFF;
    for &b in bytes {
        crc ^= b as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// An `f64` as the 16 hex digits of its IEEE-754 bits: the exact encoding.
#[derive(Debug, Clone, Copy)]
pub struct Bits(pub f64);

impl Display for Bits {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        Hex(self.0.to_bits()).fmt(f)
    }
}

/// An optional `f64`: [`Bits`], or `-` for `None`.
#[derive(Debug, Clone, Copy)]
pub struct OptBits(pub Option<f64>);

impl Display for OptBits {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            Some(x) => Bits(x).fmt(f),
            None => f.write_str("-"),
        }
    }
}

/// A `u64` as 16 lowercase hex digits (RNG state words, fingerprints).
#[derive(Debug, Clone, Copy)]
pub struct Hex(pub u64);

impl Display for Hex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// The items of a list separated by single spaces.
#[derive(Debug, Clone, Copy)]
pub struct Words<I>(pub I);

impl<I> Display for Words<I>
where
    I: Clone + IntoIterator,
    I::Item: Display,
{
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, item) in self.0.clone().into_iter().enumerate() {
            if i > 0 {
                f.write_str(" ")?;
            }
            item.fmt(f)?;
        }
        Ok(())
    }
}

/// `s` unchanged when it can be written as a whole value: [`unseal`]
/// gives a value back without `#` comments, line breaks and surrounding
/// whitespace, so a string holding any of them is refused.
///
/// # Errors
/// [`CheckpointError::Unwritable`] naming `s`.
pub fn value(s: &str) -> Result<&str> {
    if s.contains(['#', '\n']) || s.trim() != s {
        return Err(CheckpointError::Unwritable(format!("{s:?} as a value")));
    }
    Ok(s)
}

/// `s` unchanged when it can be written as one token of a value: as
/// [`value`], and non-empty with no whitespace inside.
///
/// # Errors
/// [`CheckpointError::Unwritable`] naming `s`.
pub fn word(s: &str) -> Result<&str> {
    if s.is_empty() || s.contains(char::is_whitespace) {
        return Err(CheckpointError::Unwritable(format!("{s:?} as a token")));
    }
    value(s)
}

/// A document being written: a header, `key = value` lines, then either
/// [`Writer::seal`] (a checkpoint) or [`Writer::finish`] (bare lines).
#[derive(Debug, Default)]
pub struct Writer {
    out: String,
}

impl Writer {
    /// A document whose first line is `header`.
    pub fn new(header: &str) -> Self {
        Writer {
            out: format!("{header}\n"),
        }
    }

    /// Appends a `# text` comment line (ignored by the reader).
    pub fn comment(&mut self, text: &str) {
        let _ = writeln!(self.out, "# {text}");
    }

    /// Appends one `key = value` line.
    pub fn line(&mut self, key: &str, value: impl Display) {
        let _ = writeln!(self.out, "{key} = {value}");
    }

    /// The lines written so far, without a footer.
    pub fn finish(self) -> String {
        self.out
    }

    /// The lines written so far plus the CRC footer covering them.
    pub fn seal(mut self) -> String {
        let crc = crc32(self.out.as_bytes());
        let _ = writeln!(self.out, "{FOOTER_KEY}{crc:08x}");
        self.out
    }
}

/// Writes `text` to `path` **atomically**: to a temporary sibling
/// (`<path>.tmp.<pid>`), synced to disk, then renamed over the target. A
/// crash at any point leaves either the previous file or the new one —
/// never a partial file.
///
/// # Errors
/// [`CheckpointError::Io`] on filesystem failure (the temporary file is
/// cleaned up best-effort).
pub fn save(path: impl AsRef<Path>, text: &str) -> Result<()> {
    let path = path.as_ref();
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(".tmp.{}", std::process::id()));
    let tmp = std::path::PathBuf::from(tmp);
    let write_sync_rename = (|| -> std::io::Result<()> {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(text.as_bytes())?;
        f.sync_all()?;
        drop(f);
        std::fs::rename(&tmp, path)
    })();
    write_sync_rename.map_err(|e| {
        std::fs::remove_file(&tmp).ok();
        CheckpointError::Io(e)
    })
}

/// Reads the text at `path`.
///
/// # Errors
/// [`CheckpointError::Io`] on filesystem failure,
/// [`CheckpointError::Corrupt`] when the bytes are not UTF-8.
pub fn load(path: impl AsRef<Path>) -> Result<String> {
    String::from_utf8(std::fs::read(path)?).map_err(|e| CheckpointError::Corrupt {
        offset: e.utf8_error().valid_up_to(),
        message: "checkpoint is not valid UTF-8".into(),
    })
}

/// Verifies a sealed document and its `header`, and returns its entries.
///
/// The order is strict: the CRC footer first (any truncation or byte
/// flip → [`CheckpointError::Corrupt`]), then the header
/// ([`CheckpointError::VersionMismatch`] for another version of the same
/// format, [`CheckpointError::Parse`] otherwise); each entry is read as
/// the iterator reaches it.
///
/// # Errors
/// As above.
pub fn unseal<'a>(text: &'a str, header: &str) -> Result<Entries<'a>> {
    let mut lines = lines(verify_footer(text, header)?);
    let first = lines.next().unwrap_or(Line { line: 1, text: "" });
    if first.text != header {
        return Err(if is_other_version(first.text, header) {
            version_mismatch(first.text, header)
        } else {
            first.error(format!("expected `{header}` header, got `{}`", first.text))
        });
    }
    Ok(Entries { lines })
}

/// `found` names the same format as `header` in another version: equal
/// up to different trailing version digits.
fn is_other_version(found: &str, header: &str) -> bool {
    let prefix = header.trim_end_matches(|c: char| c.is_ascii_digit());
    found != header
        && found
            .strip_prefix(prefix)
            .is_some_and(|v| !v.is_empty() && v.bytes().all(|b| b.is_ascii_digit()))
}

fn version_mismatch(found: &str, header: &str) -> CheckpointError {
    CheckpointError::VersionMismatch {
        found: found.to_string(),
        expected: header.to_string(),
    }
}

/// Locates and verifies the CRC footer; returns the protected body.
fn verify_footer<'a>(text: &'a str, header: &str) -> Result<&'a str> {
    let Some(footer_pos) = text.rfind(&format!("\n{FOOTER_KEY}")).map(|p| p + 1) else {
        // No footer at all: an older unsealed version of the format is a
        // version mismatch; anything else is corrupt or truncated.
        let first = text.lines().map(str::trim).find(|l| !l.is_empty());
        if let Some(first) = first.filter(|f| is_other_version(f, header)) {
            return Err(version_mismatch(first, header));
        }
        return Err(CheckpointError::Corrupt {
            offset: text.len(),
            message: "missing crc32 footer (truncated checkpoint?)".into(),
        });
    };
    // The footer must be the *exact* tail of the file — `crc32 = ` plus 8
    // lowercase hex digits plus one final newline, nothing else. A strict
    // byte-level check (no trimming, no tolerated trailing whitespace)
    // guarantees that a flip of any byte of the file, footer included,
    // is detected: bytes before the footer change the CRC, bytes inside
    // it break this shape or the stored value.
    let tail = &text[footer_pos..];
    let stored = tail
        .strip_prefix(FOOTER_KEY)
        .and_then(|rest| rest.strip_suffix('\n'))
        .filter(|h| {
            h.len() == 8
                && h.bytes()
                    .all(|b| b.is_ascii_hexdigit() && !b.is_ascii_uppercase())
        })
        .and_then(|h| u32::from_str_radix(h, 16).ok())
        .ok_or_else(|| CheckpointError::Corrupt {
            offset: footer_pos,
            message: format!("unreadable crc32 footer `{}`", tail.trim_end()),
        })?;
    let body = &text[..footer_pos];
    let computed = crc32(body.as_bytes());
    if stored != computed {
        return Err(CheckpointError::Corrupt {
            offset: footer_pos,
            message: format!(
                "crc mismatch over bytes 0..{}: stored {stored:08x}, computed {computed:08x}",
                body.len()
            ),
        });
    }
    Ok(body)
}

/// The content lines of an unsealed text, in order: each line with its
/// `#` comment (whole-line or trailing) removed and trimmed, blank ones
/// skipped. The one comment, blank-line and line-number reader: sealed
/// documents ([`Entries`]) and the plain-text grammars read through it.
pub fn lines(text: &str) -> Lines<'_> {
    Lines(text.lines().enumerate())
}

/// Iterator returned by [`lines`].
#[derive(Debug, Clone)]
pub struct Lines<'a>(std::iter::Enumerate<std::str::Lines<'a>>);

impl<'a> Iterator for Lines<'a> {
    type Item = Line<'a>;

    fn next(&mut self) -> Option<Line<'a>> {
        self.0.by_ref().find_map(|(idx, raw)| {
            let text = raw.split('#').next().unwrap_or("").trim();
            (!text.is_empty()).then_some(Line {
                line: idx + 1,
                text,
            })
        })
    }
}

/// One content line: never empty, comment removed, trimmed.
#[derive(Debug, Clone, Copy)]
pub struct Line<'a> {
    /// 1-based line number.
    pub line: usize,
    /// The content.
    pub text: &'a str,
}

impl<'a> Line<'a> {
    /// The line as one value without a key.
    fn bare(&self) -> Entry<'a> {
        Entry {
            line: self.line,
            key: "",
            value: self.text,
        }
    }

    /// A parse error on this line.
    pub fn error(&self, message: impl Display) -> CheckpointError {
        self.bare().error(message)
    }

    /// The line's whitespace-separated tokens.
    pub fn tokens(&self) -> Tokens<'a> {
        self.bare().tokens()
    }

    /// The line split at its first `=` into a trimmed key and value, or
    /// `None` when it has no `=`.
    pub fn entry(&self) -> Option<Entry<'a>> {
        let (key, value) = self.text.split_once('=')?;
        Some(Entry {
            line: self.line,
            key: key.trim(),
            value: value.trim(),
        })
    }
}

/// The `key = value` entries of a document, in file order.
#[derive(Debug, Clone)]
pub struct Entries<'a> {
    lines: Lines<'a>,
}

impl<'a> Iterator for Entries<'a> {
    type Item = Result<Entry<'a>>;

    fn next(&mut self) -> Option<Self::Item> {
        let line = self.lines.next()?;
        Some(
            line.entry().ok_or_else(|| {
                line.error(format_args!("expected `key = value`, got `{}`", line.text))
            }),
        )
    }
}

/// One `key = value` line. Every reader, here and on [`Tokens`], fails
/// with [`CheckpointError::Parse`] naming the line, the key and the
/// offending token.
#[derive(Debug, Clone, Copy)]
pub struct Entry<'a> {
    /// 1-based line number.
    pub line: usize,
    /// The key, trimmed.
    pub key: &'a str,
    /// The value, trimmed, trailing comment removed.
    pub value: &'a str,
}

impl<'a> Entry<'a> {
    /// A parse error on this line, naming its key.
    pub fn error(&self, message: impl Display) -> CheckpointError {
        let message = match self.key {
            "" => message.to_string(),
            key => format!("`{key}`: {message}"),
        };
        CheckpointError::Parse {
            line: self.line,
            message,
        }
    }

    /// `tok` as a number (`e.num::<u64>(e.value)` reads the whole value).
    pub fn num<T: FromStr>(&self, tok: &str) -> Result<T> {
        tok.parse()
            .map_err(|_| self.error(format!("expected a number, got `{tok}`")))
    }

    /// `tok` as an exact [`Bits`] float.
    pub fn bits(&self, tok: &str) -> Result<f64> {
        match tok.len() {
            16 => self.hex(tok).map(f64::from_bits),
            _ => Err(self.error(format!("expected 16-hex-digit f64 bits, got `{tok}`"))),
        }
    }

    /// `tok` as a [`Hex`] `u64`.
    pub fn hex(&self, tok: &str) -> Result<u64> {
        u64::from_str_radix(tok, 16).map_err(|_| self.error(format!("bad hex word `{tok}`")))
    }

    /// The value's whitespace-separated tokens.
    pub fn tokens(&self) -> Tokens<'a> {
        Tokens {
            entry: *self,
            words: self.value.split_whitespace(),
        }
    }
}

/// Typed readers over one value's tokens, left to right. As an iterator
/// it yields the raw tokens not yet read.
#[derive(Debug, Clone)]
pub struct Tokens<'a> {
    entry: Entry<'a>,
    words: std::str::SplitWhitespace<'a>,
}

impl<'a> Tokens<'a> {
    /// The next raw token (an error when there is none).
    pub fn word(&mut self) -> Result<&'a str> {
        self.words
            .next()
            .ok_or_else(|| self.entry.error("too few fields"))
    }

    /// The next token as a number.
    pub fn num<T: FromStr>(&mut self) -> Result<T> {
        self.word().and_then(|tok| self.entry.num(tok))
    }

    /// The next token as a [`Bits`] float.
    pub fn bits(&mut self) -> Result<f64> {
        self.word().and_then(|tok| self.entry.bits(tok))
    }

    /// The next token as an [`OptBits`] float.
    pub fn opt_bits(&mut self) -> Result<Option<f64>> {
        match self.word()? {
            "-" => Ok(None),
            tok => self.entry.bits(tok).map(Some),
        }
    }

    /// The next token as a `0`/`1` flag.
    pub fn flag(&mut self) -> Result<bool> {
        match self.word()? {
            "0" => Ok(false),
            "1" => Ok(true),
            tok => Err(self
                .entry
                .error(format!("expected a 0/1 flag, got `{tok}`"))),
        }
    }

    /// Every remaining token as a number.
    pub fn rest<T: FromStr>(self) -> Result<Vec<T>> {
        let entry = self.entry;
        self.words.map(|tok| entry.num(tok)).collect()
    }

    /// Checks that every token was read (an error naming the first extra).
    pub fn end(mut self) -> Result<()> {
        match self.words.next() {
            None => Ok(()),
            Some(tok) => Err(self.entry.error(format!("unexpected extra field `{tok}`"))),
        }
    }
}

impl<'a> Iterator for Tokens<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        self.words.next()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const HEADER: &str = "heron-demo v2";

    fn sealed(body: &str) -> String {
        format!("{body}{FOOTER_KEY}{:08x}\n", crc32(body.as_bytes()))
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_ne!(crc32(b"a"), crc32(b"b"));
    }

    #[test]
    fn writers_and_readers_roundtrip_exactly() {
        let floats = [0.0, -0.0, 1.5, f64::NAN, f64::INFINITY, 1e-308, -3.25];
        let mut w = Writer::new(HEADER);
        w.comment("floats are IEEE-754 bits");
        w.line("floats", Words(floats.iter().map(|&x| Bits(x))));
        w.line(
            "opt",
            format_args!("{} {}", OptBits(None), OptBits(Some(2.0))),
        );
        w.line("words", Words([Hex(1), Hex(u64::MAX)]));
        w.line(
            "mixed",
            format_args!("{} 1 -7 0 # trailing comment", u64::MAX),
        );
        let text = w.seal();
        assert!(text.contains("opt = - 4000000000000000\n"), "{text}");
        assert!(text.contains("words = 0000000000000001 ffffffffffffffff\n"));

        let got: Vec<Entry<'_>> = unseal(&text, HEADER).unwrap().map(|e| e.unwrap()).collect();
        assert_eq!(got.len(), 4);
        let back: Vec<f64> = got[0].tokens().map(|t| got[0].bits(t).unwrap()).collect();
        for (a, b) in back.iter().zip(&floats) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        let mut t = got[1].tokens();
        assert_eq!(t.opt_bits().unwrap(), None);
        assert_eq!(t.opt_bits().unwrap(), Some(2.0));
        t.end().unwrap();
        let words: Vec<u64> = got[2].tokens().map(|t| got[2].hex(t).unwrap()).collect();
        assert_eq!(words, [1, u64::MAX]);
        let mut t = got[3].tokens();
        assert_eq!(t.num::<u64>().unwrap(), u64::MAX);
        assert!(t.flag().unwrap());
        assert_eq!(t.rest::<i64>().unwrap(), [-7, 0]);
        assert_eq!(got[3].line, 6, "line numbers count the header and comment");
    }

    #[test]
    fn readers_name_the_line_key_and_token() {
        let e = Entry {
            line: 4,
            key: "iter",
            value: "1 x",
        };
        let mut t = e.tokens();
        assert_eq!(t.num::<u32>().unwrap(), 1);
        let err = t.num::<u32>().unwrap_err().to_string();
        assert_eq!(
            err,
            "checkpoint parse error at line 4: `iter`: expected a number, got `x`"
        );
        let mut t = e.tokens();
        assert!(t.flag().unwrap());
        assert!(t.clone().flag().unwrap_err().to_string().contains("0/1"));
        assert!(t
            .clone()
            .end()
            .unwrap_err()
            .to_string()
            .contains("extra field `x`"));
        t.word().unwrap();
        assert!(t.word().unwrap_err().to_string().contains("too few fields"));
        assert!(e
            .bits("3ff")
            .unwrap_err()
            .to_string()
            .contains("16-hex-digit"));
        let text = sealed(&format!("{HEADER}\na = 1\n\n  # note\nno equals sign\n"));
        let bad = unseal(&text, HEADER).unwrap().nth(1).unwrap().unwrap_err();
        assert!(
            matches!(bad, CheckpointError::Parse { line: 5, .. }),
            "{bad}"
        );
    }

    #[test]
    fn lines_skip_comments_and_blanks_and_count_every_line() {
        let got: Vec<(usize, &str)> = lines("# head\n\n  a b # note\nc=d\n   \n#x\n e ")
            .map(|l| (l.line, l.text))
            .collect();
        assert_eq!(got, [(3, "a b"), (4, "c=d"), (7, "e")]);
        let l = lines("x\n y  z ").nth(1).unwrap();
        assert_eq!(l.tokens().collect::<Vec<_>>(), ["y", "z"]);
        assert_eq!(
            l.error("bad").to_string(),
            "checkpoint parse error at line 2: bad"
        );
        assert!(l.entry().is_none());
        let e = lines("k = v = w").next().unwrap().entry().unwrap();
        assert_eq!((e.key, e.value), ("k", "v = w"));
    }

    #[test]
    fn value_and_word_refuse_what_the_reader_would_change() {
        for ok in ["", "gemm-256", "a b", "x=y"] {
            assert_eq!(value(ok).unwrap(), ok);
        }
        for bad in ["a#b", "a\nb", " a", "a ", "a\r"] {
            let err = value(bad).unwrap_err();
            assert!(matches!(err, CheckpointError::Unwritable(_)), "{bad:?}");
        }
        assert_eq!(word("tile.C.i0").unwrap(), "tile.C.i0");
        for bad in ["", "a b", "a\tb", "#"] {
            assert!(word(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn every_byte_flip_and_truncation_is_corrupt() {
        let mut w = Writer::new(HEADER);
        w.line("seed", 7);
        w.line("curve", Words([Bits(1.0), Bits(2.5)]));
        let text = w.seal();
        assert_eq!(unseal(&text, HEADER).unwrap().count(), 2);
        for off in 0..text.len() {
            let mut bytes = text.clone().into_bytes();
            bytes[off] ^= 0x01;
            if let Ok(s) = String::from_utf8(bytes) {
                let err = unseal(&s, HEADER).map(|_| ()).unwrap_err();
                assert!(
                    matches!(err, CheckpointError::Corrupt { .. }),
                    "{off}: {err}"
                );
            }
        }
        for cut in 0..text.len() {
            let err = unseal(&text[..cut], HEADER).map(|_| ()).unwrap_err();
            assert!(
                matches!(err, CheckpointError::Corrupt { .. }),
                "{cut}: {err}"
            );
        }
    }

    #[test]
    fn other_versions_and_foreign_headers_are_told_apart() {
        // An older unsealed version, and the same header sealed.
        for text in [
            "heron-demo v1\nseed = 1\n",
            &sealed("heron-demo v1\nseed = 1\n"),
        ] {
            match unseal(text, HEADER).map(|_| ()).unwrap_err() {
                CheckpointError::VersionMismatch { found, expected } => {
                    assert_eq!(found, "heron-demo v1");
                    assert_eq!(expected, HEADER);
                }
                other => panic!("wrong error: {other}"),
            }
        }
        // A foreign format: corrupt without a footer, a header parse
        // error with one.
        let err = unseal("heron-library v1\n", HEADER)
            .map(|_| ())
            .unwrap_err();
        assert!(matches!(err, CheckpointError::Corrupt { .. }));
        let err = unseal(&sealed("\nheron-library v1\n"), HEADER)
            .map(|_| ())
            .unwrap_err();
        assert!(
            matches!(err, CheckpointError::Parse { line: 2, .. }),
            "{err}"
        );
        let err = unseal("", HEADER).map(|_| ()).unwrap_err();
        assert!(matches!(err, CheckpointError::Corrupt { offset: 0, .. }));
    }

    #[test]
    fn save_is_atomic_and_load_reads_it_back() {
        let dir = std::env::temp_dir();
        let name = format!("heron-kv-test-{}.txt", std::process::id());
        let path = dir.join(&name);
        let text = Writer::new(HEADER).seal();
        save(&path, &text).expect("saves");
        save(&path, &text).expect("overwrites");
        assert_eq!(load(&path).expect("loads"), text);
        let leftover = std::fs::read_dir(&dir)
            .expect("temp dir lists")
            .filter_map(|e| e.ok())
            .any(|e| {
                e.file_name()
                    .to_string_lossy()
                    .starts_with(&format!("{name}.tmp"))
            });
        assert!(!leftover, "atomic save left a temporary file behind");
        std::fs::write(&path, [b'a', 0xff, b'b']).expect("writes");
        assert!(matches!(
            load(&path),
            Err(CheckpointError::Corrupt { offset: 1, .. })
        ));
        std::fs::remove_file(&path).ok();
        assert!(matches!(
            load("/nonexistent/heron.ckpt"),
            Err(CheckpointError::Io(_))
        ));
    }
}
