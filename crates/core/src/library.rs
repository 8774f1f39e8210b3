//! Kernel library generation: the end product of the paper's pipeline.
//!
//! A [`KernelLibrary`] maps workload signatures to their best tuned
//! configurations. It supports batch generation over a workload list,
//! lookup (with the lowered kernel reconstructed on demand), and a sealed
//! text on-disk format so a generated library ships with an application
//! and is loaded without re-tuning — the "high-performance software
//! library with well-established APIs" of the paper's title.
//!
//! The format, `heron-library v2`, is a [`kv`] document: one section per
//! entry, its four fields in this order, then one `var` line per tunable;
//! floats are exact IEEE-754 bits.
//!
//! ```text
//! heron-library v2
//! entry = gemm-1024
//! dla = v100
//! gflops = 40eb71cccccccccd
//! latency_s = 3f04074f5db2a9e6
//! var = tile.C.i0 16
//! var = tile.C.i1 8
//! …
//! crc32 = 0123abcd
//! ```
//!
//! [`KernelLibrary::save`] writes atomically and [`KernelLibrary::load`]
//! checks the CRC first, so a damaged file is
//! [`CheckpointError::Corrupt`] and a `heron-library v1` file
//! [`CheckpointError::VersionMismatch`].

use std::collections::BTreeMap;
use std::path::Path;

use heron_csp::{SolvePolicy, SolveSession};
use heron_dla::Measurer;
use heron_sched::{lower, Kernel};
use heron_tensor::Dag;
use heron_trace::kv::{self, Bits, CheckpointError, Entry};
use heron_trace::Tracer;

use crate::generate::{GeneratedSpace, SpaceGenerator, SpaceOptions};
use crate::tuner::{TuneConfig, Tuner};

/// One tuned entry.
#[derive(Debug, Clone, PartialEq)]
pub struct LibraryEntry {
    /// Target platform name.
    pub dla: String,
    /// Achieved throughput, Gops.
    pub gflops: f64,
    /// Latency, seconds.
    pub latency_s: f64,
    /// Tunable-variable assignment by name (enough to reproduce the
    /// schedule deterministically through the CSP).
    pub tunables: BTreeMap<String, i64>,
}

/// A generated kernel library.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct KernelLibrary {
    entries: BTreeMap<String, LibraryEntry>,
}

const HEADER: &str = "heron-library v2";

impl KernelLibrary {
    /// Creates an empty library.
    pub fn new() -> Self {
        KernelLibrary::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the library is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Entry lookup.
    pub fn get(&self, key: &str) -> Option<&LibraryEntry> {
        self.entries.get(key)
    }

    /// Iterates over `(key, entry)` pairs in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &LibraryEntry)> {
        self.entries.iter()
    }

    /// Inserts or replaces an entry (keeps the better of the two when one
    /// already exists).
    pub fn insert(&mut self, key: impl Into<String>, entry: LibraryEntry) {
        let key = key.into();
        match self.entries.get(&key) {
            Some(old) if old.gflops >= entry.gflops => {}
            _ => {
                self.entries.insert(key, entry);
            }
        }
    }

    /// Tunes `dag` for `spec` and records the result under `key`.
    /// Returns the entry, or `None` when no valid program was found (or
    /// the platform cannot run the operator).
    pub fn tune_and_insert(
        &mut self,
        key: &str,
        dag: &Dag,
        spec: &heron_dla::DlaSpec,
        config: TuneConfig,
        seed: u64,
    ) -> Option<&LibraryEntry> {
        let space = SpaceGenerator::new(spec.clone())
            .generate_named(dag, &SpaceOptions::heron(), key)
            .ok()?;
        let csp_tunables = space.csp.tunables();
        let csp = space.csp.clone();
        let mut tuner = Tuner::new(space, Measurer::new(spec.clone()), config, seed);
        let result = tuner.run();
        let sol = result.best_solution?;
        let tunables: BTreeMap<String, i64> = csp_tunables
            .iter()
            .map(|&v| (csp.var(v).name.clone(), sol.value(v)))
            .collect();
        self.insert(
            key,
            LibraryEntry {
                dla: spec.name.clone(),
                gflops: result.best_gflops,
                latency_s: result.best_latency_s,
                tunables,
            },
        );
        self.get(key)
    }

    /// Reconstructs the lowered kernel of an entry by pinning its tunables
    /// onto a freshly generated space and solving (deterministic: the
    /// tunables functionally determine every other variable).
    pub fn materialize(&self, key: &str, dag: &Dag, spec: &heron_dla::DlaSpec) -> Option<Kernel> {
        let entry = self.get(key)?;
        let space: GeneratedSpace = SpaceGenerator::new(spec.clone())
            .generate_named(dag, &SpaceOptions::heron(), key)
            .ok()?;
        let csp = &space.csp;
        let pins = entry
            .tunables
            .iter()
            .map(|(name, value)| Some((csp.var_by_name(name)?, vec![*value])))
            .collect::<Option<Vec<_>>>()?;
        let mut rng = heron_rng::HeronRng::from_seed(0);
        let policy = SolvePolicy::fixed(800);
        let sol = SolveSession::new(csp)
            .solve_pinned(&pins, &mut rng, 1, &policy, &Tracer::disabled())
            .one()?;
        lower(&space.template, sol.fingerprint(), &|n| {
            sol.value_by_name(csp, n)
        })
        .ok()
    }

    /// Serialises the library to its sealed text format.
    ///
    /// # Errors
    /// [`CheckpointError::Unwritable`] when a key or platform name holds a
    /// `#`, a line break or surrounding whitespace, or a tunable name is
    /// not a single token.
    pub fn to_text(&self) -> Result<String, CheckpointError> {
        let mut w = kv::Writer::new(HEADER);
        for (key, e) in &self.entries {
            w.line("entry", kv::value(key)?);
            w.line("dla", kv::value(&e.dla)?);
            w.line("gflops", Bits(e.gflops));
            w.line("latency_s", Bits(e.latency_s));
            for (name, value) in &e.tunables {
                w.line("var", format_args!("{} {value}", kv::word(name)?));
            }
        }
        Ok(w.seal())
    }

    /// Parses the sealed text format.
    ///
    /// # Errors
    /// [`CheckpointError::Corrupt`] or [`CheckpointError::VersionMismatch`]
    /// for a damaged file or another version; [`CheckpointError::Parse`]
    /// naming the line of a malformed field, a field out of order or
    /// missing from its section, or a repeated key or tunable.
    pub fn from_text(text: &str) -> Result<Self, CheckpointError> {
        let mut lib = KernelLibrary::new();
        let mut open: Option<(Entry<'_>, LibraryEntry)> = None;
        let mut fields = kv::unseal(text, HEADER)?;
        while let Some(e) = fields.next().transpose()? {
            if e.key == "var" {
                let (_, entry) = open.as_mut().ok_or_else(|| e.error("before any `entry`"))?;
                let mut t = e.tokens();
                let (name, value) = (t.word()?, t.num()?);
                t.end()?;
                if entry.tunables.insert(name.to_string(), value).is_some() {
                    return Err(e.error(format!("repeated tunable `{name}`")));
                }
                continue;
            }
            lib.close(open.take())?;
            if e.key != "entry" {
                return Err(e.error("expected `entry` or `var`"));
            }
            // The section's fixed fields, in order.
            let mut field = |name: &str| match fields.next().transpose()? {
                Some(f) if f.key == name => Ok(f),
                Some(f) => Err(f.error(format!("expected `{name}`"))),
                None => Err(e.error(format!("section ends before `{name}`"))),
            };
            let entry = LibraryEntry {
                dla: field("dla")?.value.to_string(),
                gflops: field("gflops").and_then(|f| f.bits(f.value))?,
                latency_s: field("latency_s").and_then(|f| f.bits(f.value))?,
                tunables: BTreeMap::new(),
            };
            open = Some((e, entry));
        }
        lib.close(open)?;
        Ok(lib)
    }

    /// Adds a section read by [`KernelLibrary::from_text`], refusing a
    /// repeated key.
    fn close(&mut self, section: Option<(Entry<'_>, LibraryEntry)>) -> Result<(), CheckpointError> {
        if let Some((at, entry)) = section {
            if self.entries.insert(at.value.to_string(), entry).is_some() {
                return Err(at.error(format!("repeated key `{}`", at.value)));
            }
        }
        Ok(())
    }

    /// Saves the library to a file, atomically.
    ///
    /// # Errors
    /// As [`KernelLibrary::to_text`], and [`CheckpointError::Io`].
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), CheckpointError> {
        kv::save(path, &self.to_text()?)
    }

    /// Loads a library from a file.
    ///
    /// # Errors
    /// [`CheckpointError::Io`], and as [`KernelLibrary::from_text`].
    pub fn load(path: impl AsRef<Path>) -> Result<Self, CheckpointError> {
        KernelLibrary::from_text(&kv::load(path)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heron_dla::v100;
    use heron_tensor::ops;

    #[test]
    fn tune_insert_materialize_roundtrip() {
        let dag = ops::gemm(256, 256, 256);
        let spec = v100();
        let mut lib = KernelLibrary::new();
        let entry = lib
            .tune_and_insert("gemm-256", &dag, &spec, TuneConfig::quick(24), 5)
            .expect("tunes")
            .clone();
        assert!(entry.gflops > 0.0);
        assert!(!entry.tunables.is_empty());

        // Materialise and re-measure: identical latency up to measurement
        // noise (same deterministic simulator + same config fingerprint).
        let kernel = lib
            .materialize("gemm-256", &dag, &spec)
            .expect("materialises");
        let m = Measurer::new(spec);
        let meas = m.measure(&kernel).expect("valid");
        let rel = (meas.latency_s - entry.latency_s).abs() / entry.latency_s;
        assert!(rel < 0.05, "materialised kernel differs by {rel}");
    }

    #[test]
    fn text_roundtrip_preserves_everything() {
        let lib = sample();
        let text = lib.to_text().expect("writable");
        let back = KernelLibrary::from_text(&text).expect("parses");
        assert_eq!(lib, back);
        assert_eq!(back.to_text().unwrap(), text);
    }

    fn sample() -> KernelLibrary {
        let mut lib = KernelLibrary::new();
        lib.insert(
            "gemm-1",
            LibraryEntry {
                dla: "v100".into(),
                gflops: 1234.5,
                latency_s: 3.25e-5,
                tunables: BTreeMap::from([
                    ("tile.C.i0".to_string(), 16),
                    ("vec.A.shared".to_string(), 8),
                ]),
            },
        );
        lib
    }

    #[test]
    fn insert_keeps_the_better_entry() {
        let mut lib = KernelLibrary::new();
        let entry = |g: f64| LibraryEntry {
            dla: "v100".into(),
            gflops: g,
            latency_s: 1.0 / g,
            tunables: BTreeMap::new(),
        };
        lib.insert("k", entry(100.0));
        lib.insert("k", entry(50.0));
        assert_eq!(lib.get("k").expect("exists").gflops, 100.0);
        lib.insert("k", entry(200.0));
        assert_eq!(lib.get("k").expect("exists").gflops, 200.0);
        assert_eq!(lib.len(), 1);
    }

    #[test]
    fn parse_errors_are_located() {
        /// `body` sealed under the library header.
        fn doc(body: &str) -> String {
            let text = format!("{HEADER}\n{body}");
            format!("{text}crc32 = {:08x}\n", kv::crc32(text.as_bytes()))
        }
        let bits = |x: f64| Bits(x).to_string();
        let fields = format!(
            "dla = v100\ngflops = {}\nlatency_s = {}\n",
            bits(2.0),
            bits(0.5)
        );
        for (body, line) in [
            ("entry = k\nnonsense line\n".to_string(), 3),
            ("entry = k\n".to_string(), 2),
            ("entry = k\ndla = v100\ndla = v100\n".to_string(), 4),
            (format!("entry = k\n{fields}dla = v100\n"), 6),
            (format!("entry = k\ngflops = {}\n", bits(2.0)), 3),
            ("entry = k\ndla = v100\ngflops = 2.0\n".to_string(), 4),
            (format!("entry = k\n{fields}entry = k\n{fields}"), 6),
            (format!("entry = k\n{fields}var = t 1\nvar = t 2\n"), 7),
            (format!("entry = k\n{fields}var = t 1 2\n"), 6),
            ("var = t 1\n".to_string(), 2),
        ] {
            match KernelLibrary::from_text(&doc(&body)) {
                Err(CheckpointError::Parse { line: l, .. }) => assert_eq!(l, line, "{body:?}"),
                other => panic!("{body:?}: expected a parse error, got {other:?}"),
            }
        }
        let v1 = "heron-library v1\n[k]\ndla = v100\n";
        let err = KernelLibrary::from_text(v1).unwrap_err();
        assert!(
            matches!(err, CheckpointError::VersionMismatch { .. }),
            "{err}"
        );
    }

    #[test]
    fn names_the_format_cannot_carry_are_refused() {
        for (key, dla, tunable) in [
            ("a#b", "v100", "t"),
            (" k", "v100", "t"),
            ("k\nentry = j", "v100", "t"),
            ("k", "v100 ", "t"),
            ("k", "v100", "t u"),
        ] {
            let mut lib = KernelLibrary::new();
            let tunables = BTreeMap::from([(tunable.to_string(), 1)]);
            let (dla, gflops, latency_s) = (dla.to_string(), 1.0, 1.0);
            lib.insert(
                key,
                LibraryEntry {
                    dla,
                    gflops,
                    latency_s,
                    tunables,
                },
            );
            let err = lib.to_text().unwrap_err();
            assert!(
                matches!(err, CheckpointError::Unwritable(_)),
                "{key:?}: {err}"
            );
        }
    }

    #[test]
    fn every_byte_flip_and_truncation_of_a_saved_library_is_corrupt() {
        let path = std::env::temp_dir().join(format!("heron-lib-{}.lib", std::process::id()));
        sample().save(&path).expect("saves");
        let saved = std::fs::read(&path).expect("reads");
        assert_eq!(KernelLibrary::load(&path).expect("loads"), sample());
        std::fs::remove_file(&path).ok();
        for off in 0..saved.len() {
            let mut bytes = saved.clone();
            bytes[off] ^= 0x01;
            let err = KernelLibrary::from_text(&String::from_utf8(bytes).unwrap()).unwrap_err();
            assert!(
                matches!(err, CheckpointError::Corrupt { .. }),
                "{off}: {err}"
            );
        }
        let text = String::from_utf8(saved).unwrap();
        for cut in 0..text.len() {
            let err = KernelLibrary::from_text(&text[..cut]).unwrap_err();
            assert!(
                matches!(err, CheckpointError::Corrupt { .. }),
                "{cut}: {err}"
            );
        }
    }
}
