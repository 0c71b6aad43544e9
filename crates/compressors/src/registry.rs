//! The codec registry: one row per registered codec configuration,
//! holding its name, its Table II columns, its accuracy floor and its
//! constructor. [`CODECS`] lists Table II of the paper in its order,
//! then the absolute-bound SZ rows the Fig. 5 text refers to.
//! [`by_name`], [`accuracy_floor`], [`names`] and the Table II listing
//! ([`TABLE_TWO`]) all read it, and `krylov::basis_format` builds its
//! codec stores from a row.

use crate::pwrel::PwrelCompressor;
use crate::sz::Predictor::{self, Interpolation, Lorenzo};
use crate::sz::SzCompressor;
use crate::zfp::ZfpCompressor;
use crate::zfp::ZfpMode::{self, FixedAccuracy, FixedRate};
use crate::Compressor;
use std::sync::Arc;
use Kind::{Pwrel, Sz, Zfp};

/// One registered codec configuration.
#[derive(Clone, Copy, Debug)]
pub struct Codec {
    /// The name Table II, the figures and `krylov::basis_format` use.
    pub name: &'static str,
    /// Table II's error-bound type column.
    pub bound_type: &'static str,
    /// Table II's bound column, as the paper prints it.
    pub bound: &'static str,
    /// Worst-case absolute error the codec may introduce into a
    /// unit-scale value (`|x| ≤ 1`, the Krylov-basis regime: columns are
    /// unit-norm).
    ///
    /// This is the storage-accuracy floor the adaptive-precision solver
    /// uses to order codecs against the FRSZ2/cast escalation ladder:
    /// absolute-bound codecs report their bound verbatim, pointwise-
    /// relative codecs their bound (which at `|x| = 1` is the absolute
    /// error), and fixed-rate ZFP the precision its kept bit planes
    /// achieve in *this* implementation (~10 effective significand bits
    /// at 16 bits/value, ~26 at 32), pinned to measured round-trip error
    /// by `accuracy_floor_is_an_actual_bound_on_unit_scale_roundtrips`.
    pub accuracy_floor: f64,
    kind: Kind,
}

/// The constructor of a row's codec and its arguments.
#[derive(Clone, Copy, Debug)]
enum Kind {
    Sz(Predictor, f64),
    Pwrel(Predictor, f64),
    Zfp(ZfpMode),
}

impl Codec {
    /// A fresh instance of this configuration.
    pub fn build(&self) -> Arc<dyn Compressor> {
        match self.kind {
            Sz(predictor, eps) => Arc::new(SzCompressor::new(eps, predictor)),
            Pwrel(predictor, rel) => Arc::new(PwrelCompressor::new(predictor, rel)),
            Zfp(mode) => Arc::new(ZfpCompressor::new(mode)),
        }
    }
}

const fn row(
    name: &'static str,
    bound_type: &'static str,
    bound: &'static str,
    accuracy_floor: f64,
    kind: Kind,
) -> Codec {
    Codec {
        name,
        bound_type,
        bound,
        accuracy_floor,
        kind,
    }
}

/// Every registered codec (see the module docs for the order).
#[rustfmt::skip]
pub static CODECS: [Codec; 12] = [
    row("sz3_06",       "absolute",   "1e-06",   1e-6,    Sz(Interpolation, 1e-6)),
    row("sz3_07",       "absolute",   "1e-07",   1e-7,    Sz(Interpolation, 1e-7)),
    row("sz3_08",       "absolute",   "1e-08",   1e-8,    Sz(Interpolation, 1e-8)),
    row("zfp_06",       "absolute",   "1.4e-06", 1.4e-6,  Zfp(FixedAccuracy(1.4e-6))),
    row("zfp_10",       "absolute",   "4.0e-10", 4.0e-10, Zfp(FixedAccuracy(4.0e-10))),
    row("sz_pwrel_04",  "relative",   "1e-04",   1e-4,    Pwrel(Lorenzo, 1e-4)),
    row("sz3_pwrel_04", "relative",   "1e-04",   1e-4,    Pwrel(Interpolation, 1e-4)),
    row("zfp_fr_16",    "fixed rate", "16 bits", 1.0 / (1u64 << 10) as f64, Zfp(FixedRate(16))),
    row("zfp_fr_32",    "fixed rate", "32 bits", 1.0 / (1u64 << 26) as f64, Zfp(FixedRate(32))),
    row("sz_06",        "absolute",   "1e-06",   1e-6,    Sz(Lorenzo, 1e-6)),
    row("sz_07",        "absolute",   "1e-07",   1e-7,    Sz(Lorenzo, 1e-7)),
    row("sz_08",        "absolute",   "1e-08",   1e-8,    Sz(Lorenzo, 1e-8)),
];

/// Table II of the paper, verbatim: the first nine rows.
pub static TABLE_TWO: &[Codec] = CODECS.split_at(9).0;

/// The row registered under `name`.
pub fn find(name: &str) -> Option<&'static Codec> {
    CODECS.iter().find(|c| c.name == name)
}

/// Instantiate a codec by its registered name. Returns `None` for
/// unknown names.
pub fn by_name(name: &str) -> Option<Arc<dyn Compressor>> {
    find(name).map(Codec::build)
}

/// All registered names (Table II order first).
pub fn names() -> Vec<&'static str> {
    CODECS.iter().map(|c| c.name).collect()
}

/// A registered codec's [`Codec::accuracy_floor`]. Returns `None` for
/// unknown names.
pub fn accuracy_floor(name: &str) -> Option<f64> {
    find(name).map(|c| c.accuracy_floor)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_registered_name_instantiates_and_roundtrips() {
        let data: Vec<f64> = (0..256).map(|i| (i as f64 * 0.43).sin() * 0.1).collect();
        for name in names() {
            let c = by_name(name).unwrap_or_else(|| panic!("{name} missing"));
            let out = c.decompress(&c.compress(&data), data.len()).unwrap();
            assert_eq!(out.len(), data.len(), "{name}");
            // Table II bounds on these O(0.1) values: absolute configs
            // are <= 1.4e-6, pwrel 1e-4 of 0.1 is 1e-5; zfp_fr_16 keeps
            // only ~11 planes below the block exponent (float16-like),
            // zfp_fr_32 ~27 planes.
            let tol = match name {
                "zfp_fr_16" => 1e-3,
                "zfp_fr_32" => 1e-7,
                _ => 2e-5,
            };
            for (a, b) in data.iter().zip(&out) {
                assert!((a - b).abs() <= tol, "{name}: |{a} - {b}|");
            }
        }
    }

    #[test]
    fn unknown_name_is_none() {
        assert!(by_name("definitely_not_a_codec").is_none());
        assert!(accuracy_floor("definitely_not_a_codec").is_none());
    }

    #[test]
    fn every_registered_name_has_a_positive_accuracy_floor() {
        for name in names() {
            let floor =
                accuracy_floor(name).unwrap_or_else(|| panic!("{name} missing an accuracy floor"));
            assert!(floor > 0.0 && floor < 1.0, "{name}: floor {floor}");
        }
    }

    #[test]
    fn accuracy_floor_is_an_actual_bound_on_unit_scale_roundtrips() {
        // Each row's floor is written by hand next to its constructor;
        // this pins it to reality so a codec whose bound changes (or a
        // copy-pasted floor) fails here instead of silently reordering
        // the adaptive escalation ladder. Unit-scale data is the Krylov
        // regime the floor is defined for.
        let data: Vec<f64> = (0..2048)
            .map(|i| ((i as f64 * 0.37).sin() * 0.9) + 0.05 * (i as f64 * 7.13).cos())
            .collect();
        for name in names() {
            let floor = accuracy_floor(name).unwrap();
            let c = by_name(name).unwrap();
            let out = c.decompress(&c.compress(&data), data.len()).unwrap();
            let max_err = data
                .iter()
                .zip(&out)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f64, f64::max);
            assert!(
                max_err <= floor,
                "{name}: observed error {max_err:e} exceeds advertised floor {floor:e}"
            );
            // And the floor is not wildly pessimistic either — within
            // five orders of the observed worst case.
            assert!(
                floor <= max_err.max(f64::MIN_POSITIVE) * 1e5,
                "{name}: floor {floor:e} is detached from observed error {max_err:e}"
            );
        }
    }

    #[test]
    fn table_two_has_nine_rows() {
        assert_eq!(TABLE_TWO.len(), 9);
        assert_eq!(TABLE_TWO[8].name, "zfp_fr_32");
    }
}
