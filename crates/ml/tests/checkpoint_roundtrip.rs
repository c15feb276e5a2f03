//! Bit-for-bit codec round-trips for every checkpointable ML model.
//!
//! The serving engine's recovery contract is *bit-for-bit* equality with
//! an uninterrupted run, so an encode/decode cycle may not perturb a
//! single prediction bit.

use nurd_codec::{Checkpointable, CodecError, Decoder, Encoder};
use nurd_linalg::MatrixView;
use nurd_ml::{
    BinnedMatrix, GbtConfig, GradientBoosting, LogisticConfig, LogisticRegression, SquaredLoss,
};

/// Borrows row-major rows one slice each, as a `MatrixView::RowSlices`
/// view wraps them.
fn row_slices(x: &[Vec<f64>]) -> Vec<&[f64]> {
    x.iter().map(Vec::as_slice).collect()
}

fn encoded<T: Checkpointable>(value: &T) -> Vec<u8> {
    let mut enc = Encoder::new();
    value.encode(&mut enc);
    enc.into_bytes()
}

fn roundtrip<T: Checkpointable>(value: &T) -> T {
    let bytes = encoded(value);
    let mut dec = Decoder::new(&bytes);
    let out = T::decode(&mut dec).expect("decode");
    assert!(
        dec.is_empty(),
        "decode must consume exactly what encode wrote"
    );
    out
}

fn training_rows(n: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
    let x: Vec<Vec<f64>> = (0..n)
        .map(|i| vec![(i % 17) as f64, ((i * 7) % 13) as f64 * 0.5])
        .collect();
    let y: Vec<f64> = x.iter().map(|r| r[0] * 0.3 - r[1] + 1.0).collect();
    (x, y)
}

#[test]
fn gbt_ensemble_predictions_survive_bit_for_bit() {
    let (x, y) = training_rows(120);
    let cfg = GbtConfig {
        n_rounds: 12,
        ..GbtConfig::default()
    };
    let model = GradientBoosting::fit(&x, &y, SquaredLoss, &cfg).unwrap();
    let restored = roundtrip(&model);
    for row in &x {
        assert_eq!(
            model.predict(row).to_bits(),
            restored.predict(row).to_bits(),
            "prediction drifted through the codec"
        );
    }
}

#[test]
fn logistic_regression_probabilities_survive_bit_for_bit() {
    let (x, y) = training_rows(80);
    let labels: Vec<f64> = y.iter().map(|&v| f64::from(v > 2.0)).collect();
    let model = LogisticRegression::fit(&x, &labels, &LogisticConfig::default()).unwrap();
    let restored = roundtrip(&model);
    for row in &x {
        assert_eq!(
            model.predict_proba(row).to_bits(),
            restored.predict_proba(row).to_bits()
        );
    }
}

#[test]
fn binned_matrix_round_trips_structurally_equal() {
    // A quantization travels as its codes; the rows travel beside it.
    let (x, _) = training_rows(200);
    let mut binned = BinnedMatrix::build(MatrixView::RowSlices(&row_slices(&x[..150])), 16);
    binned.append_from(MatrixView::RowSlices(&row_slices(&x)));
    let (codes, built_rows, stale) = binned.parts();
    assert_eq!((codes.len(), built_rows, stale), (400, 150, false));
    let restored = BinnedMatrix::restore(
        codes.to_vec(),
        built_rows,
        stale,
        MatrixView::RowSlices(&row_slices(&x)),
    )
    .unwrap();
    assert_eq!(binned, restored);
    assert_eq!(binned.drift().to_bits(), restored.drift().to_bits());
}

#[test]
fn corrupt_gbt_bytes_yield_typed_errors_not_panics() {
    let (x, y) = training_rows(40);
    let model = GradientBoosting::fit(&x, &y, SquaredLoss, &GbtConfig::default()).unwrap();
    let bytes = encoded(&model);
    // Truncation at every prefix length must error, never panic.
    for cut in 0..bytes.len() {
        let mut dec = Decoder::new(&bytes[..cut]);
        assert!(GradientBoosting::<SquaredLoss>::decode(&mut dec).is_err());
    }
}

/// The largest split feature of an ensemble blob, read off the snapshot-v4
/// grammar by hand — independently of the decoder under test, and only
/// ever called on bytes that decoder accepted.
fn max_split_feature(blob: &[u8]) -> u64 {
    let word = |at: usize| u64::from_le_bytes(blob[at..at + 8].try_into().unwrap());
    let mut at = 16; // base score, learning rate
    let trees = word(at);
    at += 8;
    let mut widest = 0;
    for _ in 0..trees {
        let nodes = word(at);
        at += 8;
        for _ in 0..nodes {
            if blob[at] == 0 {
                at += 1 + 8; // tag, weight
            } else {
                widest = widest.max(word(at + 1));
                at += 1 + 4 * 8; // tag, feature, threshold, left, right
            }
        }
        at += 8 + nodes as usize; // length-prefixed bin codes
    }
    widest
}

/// Every single-bit flip of a valid ensemble encoding (truncations are
/// the test above) either fails to decode with a typed error, or decodes
/// to a forest that every scoring path walks without panicking on rows as
/// wide as its widest split feature asks for — a walker that indexes past
/// its arrays panics, so "decoded" has to mean "safe to walk".
#[test]
fn mutated_gbt_bytes_are_rejected_or_safe_to_score() {
    let (x, y) = training_rows(60);
    let cfg = GbtConfig {
        n_rounds: 3,
        ..GbtConfig::default()
    };
    let model = GradientBoosting::fit(&x, &y, SquaredLoss, &cfg).unwrap();
    let bytes = encoded(&model);
    assert_eq!(max_split_feature(&bytes), 1, "both features split on");

    let pool = nurd_runtime::ThreadPool::new(2);
    let (mut rejected, mut scored, mut too_wide) = (0, 0, 0);
    for bit in 0..bytes.len() * 8 {
        let mut mutated = bytes.clone();
        mutated[bit / 8] ^= 1 << (bit % 8);
        let mut dec = Decoder::new(&mutated);
        let Ok(mut model) = GradientBoosting::<SquaredLoss>::decode(&mut dec) else {
            rejected += 1;
            continue;
        };
        // A flipped feature bit can ask for rows no test should allocate;
        // the decoder is right to accept it (it fits the arrays), and a
        // narrower row is refused by the kernels' width assert.
        let width = max_split_feature(&mutated) as usize + 1;
        if width > 1 << 16 {
            too_wide += 1;
            continue;
        }
        let rows: Vec<Vec<f64>> = (0..11).map(|i| vec![f64::from(i) - 5.0; width]).collect();
        let view = MatrixView::RowSlices(&row_slices(&rows));
        let reference = model.predict_view(view);
        for lanes in nurd_ml::SUPPORTED_LANES {
            model.set_lanes(lanes);
            let mut out = Vec::new();
            model.forest().predict_view_into(view, &mut out);
            assert_eq!(out.len(), reference.len());
            model
                .forest()
                .predict_view_into_pooled(view, &pool, 3, &mut out);
            assert_eq!(out.len(), reference.len());
        }
        scored += 1;
    }
    // The property must have met all three outcomes to mean anything.
    assert!(
        rejected > 100 && scored > 100 && too_wide > 0,
        "rejected {rejected}, scored {scored}, too wide to score {too_wide}"
    );
}

/// The same property for the propensity model: every truncation and every
/// single-bit flip of a valid `LogisticRegression` encoding either fails
/// to decode with a typed error, or decodes to a model that scores rows of
/// its own width and seeds a warm refit without panicking — scoring zips
/// the weight, mean and deviation tables, and `remap_seed` indexes all
/// three by the weights' length.
#[test]
fn mutated_logistic_bytes_are_rejected_or_safe_to_score_and_seed() {
    let (x, y) = training_rows(80);
    let labels: Vec<f64> = y.iter().map(|&v| f64::from(v > 2.0)).collect();
    let config = LogisticConfig::default();
    let model = LogisticRegression::fit(&x, &labels, &config).unwrap();
    let bytes = encoded(&model);
    for cut in 0..bytes.len() {
        assert!(LogisticRegression::decode(&mut Decoder::new(&bytes[..cut])).is_err());
    }

    let (mut rejected, mut used) = (0, 0);
    for bit in 0..bytes.len() * 8 {
        let mut mutated = bytes.clone();
        mutated[bit / 8] ^= 1 << (bit % 8);
        let Ok(restored) = LogisticRegression::decode(&mut Decoder::new(&mutated)) else {
            rejected += 1;
            continue;
        };
        let rows = vec![vec![0.25; restored.weights().len()]; 5];
        assert_eq!(
            restored
                .predict_proba_view(MatrixView::RowSlices(&row_slices(&rows)))
                .len(),
            5
        );
        // A seed the solver cannot use (another width, a non-finite remap)
        // falls back to a cold fit; either way the refit returns.
        let view = MatrixView::RowSlices(&row_slices(&x));
        let _ = LogisticRegression::fit_view_warm(view, &labels, &config, Some(&restored));
        used += 1;
    }
    // A flipped length prefix or deviation sign is rejected; a flipped
    // mantissa bit is a different, equally usable model.
    assert!(rejected > 50 && used > 100, "{rejected} / {used}");
}

/// Every bin table is derived from the codes and the rows, so no code can
/// miss its column's bins and no table can disagree with another: what is
/// left for `restore` to refuse is a shape.
#[test]
fn binned_matrix_restore_refuses_shapes_and_survives_any_codes() {
    let (x, _) = training_rows(40);
    let slices = row_slices(&x);
    let rows = MatrixView::RowSlices(&slices);
    let binned = BinnedMatrix::build(rows, 8);
    let (codes, built_rows, stale) = binned.parts();
    let restore =
        |codes: &[u8], built: usize, x| BinnedMatrix::restore(codes.to_vec(), built, stale, x);
    assert_eq!(restore(codes, built_rows, rows).unwrap(), binned);
    let refused =
        |r: Result<BinnedMatrix, CodecError>| matches!(r, Err(CodecError::LengthOverrun { .. }));
    // Not a whole number of two-wide rows; no rows; no width to divide by.
    assert!(refused(restore(&codes[..79], built_rows, rows)));
    assert!(refused(restore(&[], 0, rows)));
    assert!(refused(restore(
        codes,
        built_rows,
        MatrixView::RowSlices(&[])
    )));
    // More rows quantized than rows present.
    assert!(refused(restore(
        codes,
        39,
        MatrixView::RowSlices(&slices[..39])
    )));
    // A build that saw no row, or more rows than the codes cover.
    assert!(refused(restore(codes, 0, rows)));
    assert!(refused(restore(codes, 41, rows)));
    // Fewer rows quantized than present is the state between an absorb
    // and the next refit.
    assert_eq!(restore(&codes[..60], 30, rows).unwrap().rows(), 30);

    // Any code is a bin (the bin count follows the codes), so every
    // mutation restores — bins no build row fell into have no range — and
    // must survive the paths that index through the tables.
    for bit in 0..codes.len() * 8 {
        let mut mutated = codes.to_vec();
        mutated[bit / 8] ^= 1 << (bit % 8);
        let mut restored = restore(&mutated, 1 + bit % 40, rows).unwrap();
        let _ = restored.drift();
        let mut grown = x.clone();
        grown.push(vec![3.5, -1.0]);
        let _ = restored.append_from(MatrixView::RowSlices(&row_slices(&grown)));
        let y = vec![1.0; restored.rows()];
        let cfg = GbtConfig {
            n_rounds: 2,
            ..GbtConfig::default()
        };
        let fit =
            GradientBoosting::fit_binned_cached(&restored, &y, SquaredLoss, &cfg, &mut Vec::new());
        assert!(fit.is_ok());
    }
}
