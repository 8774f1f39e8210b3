//! Kernel library generation: the end product of the paper's pipeline.
//!
//! A [`KernelLibrary`] maps workload signatures to their best tuned
//! configurations. It supports batch generation over a workload list,
//! lookup (with the lowered kernel reconstructed on demand), and a plain
//! text on-disk format so a generated library ships with an application
//! and is loaded without re-tuning — the "high-performance software
//! library with well-established APIs" of the paper's title.
//!
//! The text format is deliberately simple and diff-friendly:
//!
//! ```text
//! heron-library v1
//! [workload-key]
//! dla = v100
//! gflops = 56203.4
//! latency_s = 3.82e-5
//! var.tile.C.i0 = 16
//! var.tile.C.i1 = 8
//! …
//! ```

use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;

use heron_csp::{SolvePolicy, SolveSession};
use heron_dla::Measurer;
use heron_sched::{lower, Kernel};
use heron_tensor::Dag;
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

/// Errors from loading a library file.
#[derive(Debug)]
pub enum LibraryError {
    /// I/O failure.
    Io(std::io::Error),
    /// Malformed content.
    Parse {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
}

impl fmt::Display for LibraryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LibraryError::Io(e) => write!(f, "library i/o error: {e}"),
            LibraryError::Parse { line, message } => {
                write!(f, "library parse error at line {line}: {message}")
            }
        }
    }
}

impl std::error::Error for LibraryError {}

impl From<std::io::Error> for LibraryError {
    fn from(e: std::io::Error) -> Self {
        LibraryError::Io(e)
    }
}

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

    /// Serialises the library to its text format.
    pub fn to_text(&self) -> String {
        let mut out = String::from("heron-library v1\n");
        for (key, e) in &self.entries {
            out.push_str(&format!("[{key}]\n"));
            out.push_str(&format!("dla = {}\n", e.dla));
            out.push_str(&format!("gflops = {}\n", e.gflops));
            out.push_str(&format!("latency_s = {:e}\n", e.latency_s));
            for (name, value) in &e.tunables {
                out.push_str(&format!("var.{name} = {value}\n"));
            }
        }
        out
    }

    /// Parses the text format.
    ///
    /// # Errors
    /// Returns [`LibraryError::Parse`] on malformed input.
    pub fn from_text(text: &str) -> Result<Self, LibraryError> {
        let mut lines = text.lines().enumerate();
        let parse_err = |line: usize, message: &str| LibraryError::Parse {
            line: line + 1,
            message: message.to_string(),
        };
        match lines.next() {
            Some((_, "heron-library v1")) => {}
            _ => return Err(parse_err(0, "missing `heron-library v1` header")),
        }
        let mut lib = KernelLibrary::new();
        let mut current: Option<(String, LibraryEntry)> = None;
        for (ln, raw) in lines {
            let line = raw.trim();
            if line.is_empty() {
                continue;
            }
            if let Some(key) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
                if let Some((k, e)) = current.take() {
                    lib.insert(k, e);
                }
                current = Some((
                    key.to_string(),
                    LibraryEntry {
                        dla: String::new(),
                        gflops: 0.0,
                        latency_s: 0.0,
                        tunables: BTreeMap::new(),
                    },
                ));
                continue;
            }
            let Some((field, value)) = line.split_once('=') else {
                return Err(parse_err(ln, "expected `field = value`"));
            };
            let (field, value) = (field.trim(), value.trim());
            let Some((_, entry)) = current.as_mut() else {
                return Err(parse_err(ln, "field before any [workload] section"));
            };
            match field {
                "dla" => entry.dla = value.to_string(),
                "gflops" => {
                    entry.gflops = value
                        .parse()
                        .map_err(|_| parse_err(ln, "bad gflops number"))?;
                }
                "latency_s" => {
                    entry.latency_s = value
                        .parse()
                        .map_err(|_| parse_err(ln, "bad latency number"))?;
                }
                other => {
                    let Some(name) = other.strip_prefix("var.") else {
                        return Err(parse_err(ln, "unknown field"));
                    };
                    let v: i64 = value
                        .parse()
                        .map_err(|_| parse_err(ln, "bad variable value"))?;
                    entry.tunables.insert(name.to_string(), v);
                }
            }
        }
        if let Some((k, e)) = current.take() {
            lib.insert(k, e);
        }
        Ok(lib)
    }

    /// Saves the library to a file.
    ///
    /// # Errors
    /// Propagates I/O failures.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), LibraryError> {
        std::fs::write(path, self.to_text())?;
        Ok(())
    }

    /// Loads a library from a file.
    ///
    /// # Errors
    /// Propagates I/O and parse failures.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, LibraryError> {
        let text = std::fs::read_to_string(path)?;
        KernelLibrary::from_text(&text)
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
        let text = lib.to_text();
        let back = KernelLibrary::from_text(&text).expect("parses");
        assert_eq!(lib, back);
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
        let bad = "heron-library v1\n[k]\nnonsense line\n";
        match KernelLibrary::from_text(bad) {
            Err(LibraryError::Parse { line, .. }) => assert_eq!(line, 3),
            other => panic!("expected parse error, got {other:?}"),
        }
        assert!(KernelLibrary::from_text("wrong header").is_err());
    }
}
