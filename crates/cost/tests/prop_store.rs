//! The growable column store against the batch one: a [`Columns`] grown
//! one row at a time must equal [`Columns::new`] of the same rows after
//! every row — same row count, codes and value bits — and so fit the same
//! `Gbdt` bit for bit; and the raw `i64` store the cost model keeps beside
//! the features must give every value back exactly, also where the
//! features collide (`ln(max(v, 0) + 1)` of negative values, and of large
//! integers that round to one `f64`). (heron-testkit harness; see
//! DESIGN.md, "Zero-dependency & determinism policy".)

use heron_cost::tree::{Rank, TreeParams};
use heron_cost::{Columns, Gbdt, GbdtParams};
use heron_rng::HeronRng;
use heron_testkit::{property_cases, Gen};

/// The cost model's featurisation of one variable value.
fn featurize(v: i64) -> f64 {
    ((v.max(0)) as f64 + 1.0).ln()
}

/// Raw values that cover every ordering case: small divisors, zero and
/// negatives (all featurise to `0.0`), and large integers one apart
/// (which featurise alike).
const RAW: [i64; 12] = [
    1,
    2,
    4,
    16,
    0,
    -1,
    -7,
    i64::MIN,
    1 << 60,
    (1 << 60) + 1,
    (1 << 60) + 2,
    i64::MAX,
];

/// Feature values beyond featurised integers: both zeros and NaNs with
/// distinct payloads and signs, each of which must keep its own code.
const ODD: [u64; 6] = [
    0x0000_0000_0000_0000,
    0x8000_0000_0000_0000,
    0x7ff8_0000_0000_0000,
    0x7ff8_0000_0000_0001,
    0xfff8_0000_0000_0000,
    0x7ff0_0000_0000_0001,
];

/// `n` rows of `d` raw values, each column drawing from its own subset of
/// [`RAW`] so columns with one, few and many distinct values all occur.
fn raw_matrix(g: &mut Gen) -> Vec<Vec<i64>> {
    let d = g.index(1, 5);
    let n = g.index(1, 40);
    let pools: Vec<Vec<i64>> = (0..d)
        .map(|_| {
            let k = g.index(1, RAW.len() + 1);
            (0..k).map(|_| *g.pick(&RAW)).collect()
        })
        .collect();
    (0..n)
        .map(|_| pools.iter().map(|pool| *g.pick(pool)).collect())
        .collect()
}

/// The featurised matrix, with some cells replaced by [`ODD`] values.
fn feature_matrix(g: &mut Gen, raw: &[Vec<i64>]) -> Vec<Vec<f64>> {
    let odd = g.bool(0.5);
    raw.iter()
        .map(|row| {
            row.iter()
                .map(|&v| match odd && g.bool(0.3) {
                    true => f64::from_bits(*g.pick(&ODD)),
                    false => featurize(v),
                })
                .collect()
        })
        .collect()
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|f| f.to_bits()).collect()
}

/// Asserts `grown` and `batch` hold the same rows the same way; `key`
/// compares values (bits for `f64`).
fn assert_same<T: Rank, K: PartialEq + std::fmt::Debug>(
    grown: &Columns<T>,
    batch: &Columns<T>,
    key: impl Fn(&[T]) -> Vec<K>,
) {
    assert_eq!(grown.rows(), batch.rows(), "row count");
    assert_eq!(grown.num_features(), batch.num_features(), "feature count");
    for f in 0..batch.num_features() {
        assert_eq!(grown.codes(f), batch.codes(f), "codes of feature {f}");
        assert_eq!(
            key(grown.values(f)),
            key(batch.values(f)),
            "values of feature {f}"
        );
    }
}

#[test]
fn grown_store_equals_batch_store_after_every_row() {
    property_cases("grown_store_equals_batch_store_after_every_row", 256, |g| {
        let raw = raw_matrix(g);
        let x = feature_matrix(g, &raw);
        let mut grown_x = Columns::default();
        let mut grown_raw = Columns::default();
        for r in 0..x.len() {
            grown_x.push_row(&x[r]);
            grown_raw.push_row(&raw[r]);
            assert_same(&grown_x, &Columns::new(&x[..=r]), bits);
            assert_same(&grown_raw, &Columns::new(&raw[..=r]), <[i64]>::to_vec);
        }
        for (r, (xr, rawr)) in x.iter().zip(&raw).enumerate() {
            assert_eq!(
                bits(&grown_x.row(r).collect::<Vec<_>>()),
                bits(xr),
                "features of row {r}"
            );
            assert_eq!(&grown_raw.row(r).collect::<Vec<_>>(), rawr, "raw row {r}");
        }
    });
}

#[test]
fn grown_store_fits_the_batch_model() {
    property_cases("grown_store_fits_the_batch_model", 128, |g| {
        let raw = raw_matrix(g);
        let x = feature_matrix(g, &raw);
        let y: Vec<f64> = (0..x.len()).map(|_| g.f64_in(-10.0, 10.0)).collect();
        let d = x[0].len();
        let params = GbdtParams {
            n_trees: g.index(0, 9),
            learning_rate: g.f64_in(0.05, 1.0),
            subsample: *g.pick(&[0.0, 0.5, 0.9, 1.0]),
            tree: TreeParams {
                max_depth: g.index(0, 5),
                min_split: g.index(1, 5),
                feature_sample: g.index(0, d + 1),
            },
        };
        let seed = g.choice(u64::MAX);
        let mut grown = Columns::default();
        for row in &x {
            grown.push_row(row);
        }

        let mut rng_grown = HeronRng::from_seed(seed);
        let mut rng_batch = HeronRng::from_seed(seed);
        let tracer = heron_trace::Tracer::disabled();
        let from_store = Gbdt::fit_traced(&grown, &y, &params, &mut rng_grown, &tracer);
        let batch = Gbdt::fit(&x, &y, &params, &mut rng_batch);

        assert_eq!(
            bits(&from_store.feature_importance()),
            bits(&batch.feature_importance()),
            "importances"
        );
        let preds = bits(&batch.predict_batch(&x));
        assert_eq!(bits(&from_store.predict_batch(&x)), preds, "predictions");
        assert_eq!(
            bits(&from_store.predict_columns(&grown)),
            preds,
            "predictions read from codes"
        );
        assert_eq!(rng_grown.next_u64(), rng_batch.next_u64(), "RNG position");
    });
}

/// New distinct values arriving below, between and above the known ones
/// raise exactly the codes above them.
#[test]
fn new_values_raise_the_codes_above_them() {
    let mut cols: Columns<i64> = Columns::default();
    for v in [5, 1, 3, 9, 3, 0] {
        cols.push_row(&[v]);
    }
    assert_eq!(cols.values(0), [0, 1, 3, 5, 9]);
    assert_eq!(cols.codes(0), [3, 1, 2, 4, 2, 0]);
    assert_eq!(cols.row(3).collect::<Vec<_>>(), [9]);
}

#[test]
fn empty_store_has_no_shape() {
    let cols: Columns = Columns::default();
    assert_eq!((cols.rows(), cols.num_features()), (0, 0));
}

#[test]
#[should_panic(expected = "ragged feature matrix")]
fn ragged_push_panics() {
    let mut cols = Columns::default();
    cols.push_row(&[1.0, 2.0]);
    cols.push_row(&[3.0]);
}
