//! Correctness checks on loss trajectories.

use std::path::Path;

/// FNV-1a over the losses' bit patterns: equal digests mean bitwise
/// equal trajectories.
pub fn digest(losses: &[f32]) -> u64 {
    losses.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, l| {
        l.to_bits()
            .to_le_bytes()
            .iter()
            .fold(h, |h, b| (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3))
    })
}

/// Bitwise equality of two trajectories.
///
/// # Errors
///
/// Names the first step that differs, or the length mismatch.
pub fn bitwise(a: &[f32], b: &[f32]) -> Result<(), String> {
    if a.len() != b.len() {
        return Err(format!("{} losses vs {}", a.len(), b.len()));
    }
    match a
        .iter()
        .zip(b)
        .position(|(x, y)| x.to_bits() != y.to_bits())
    {
        Some(i) => Err(format!("step {i}: {} vs {}", a[i], b[i])),
        None => Ok(()),
    }
}

/// Relative closeness `|a - b| <= tol * (1 + max(|a|, |b|))` at every
/// step — the form the repository's cross-mode loss tests use.
///
/// # Errors
///
/// Names the first step outside the tolerance, or the length mismatch.
pub fn close(a: &[f32], b: &[f32], tol: f32) -> Result<(), String> {
    if a.len() != b.len() {
        return Err(format!("{} losses vs {}", a.len(), b.len()));
    }
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        let within = (x - y).abs() <= tol * (1.0 + x.abs().max(y.abs()));
        if !within {
            return Err(format!("step {i}: {x} vs {y} (tolerance {tol})"));
        }
    }
    Ok(())
}

/// Largest `|a - b| / (1 + max(|a|, |b|))` over the common steps — the
/// quantity [`close`] bounds (NaN when any step is NaN).
pub fn max_rel_gap(a: &[f32], b: &[f32]) -> f32 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs() / (1.0 + x.abs().max(y.abs())))
        .fold(0.0, |m: f32, g| {
            if g.is_nan() || m.is_nan() {
                f32::NAN
            } else {
                m.max(g)
            }
        })
}

/// Every loss is finite.
///
/// # Errors
///
/// Names the first non-finite step.
pub fn finite(losses: &[f32]) -> Result<(), String> {
    match losses.iter().position(|l| !l.is_finite()) {
        Some(i) => Err(format!("step {i} loss is {}", losses[i])),
        None => Ok(()),
    }
}

/// Compares `digest` with the one an earlier run of the same key left in
/// `dir`, or records it when there is none: loss trajectories must be
/// bit-identical across runs, not only within one.
///
/// # Errors
///
/// A mismatch with the recorded digest, or an I/O failure.
pub fn against_recorded(dir: &Path, key: &str, digest: u64) -> Result<(), String> {
    let path = dir.join(format!("{key}.digest"));
    let want = format!("{digest:016x}");
    match std::fs::read_to_string(&path) {
        Ok(prev) if prev.trim() == want => Ok(()),
        Ok(prev) => Err(format!(
            "digest {want} differs from an earlier run's {}",
            prev.trim()
        )),
        Err(_) => {
            std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
            std::fs::write(&path, want).map_err(|e| e.to_string())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_sees_every_bit() {
        let a = [1.0f32, 2.0];
        let b = [1.0f32, f32::from_bits(2.0f32.to_bits() + 1)];
        assert_eq!(digest(&a), digest(&[1.0, 2.0]));
        assert_ne!(digest(&a), digest(&b));
        assert_ne!(digest(&a), digest(&[2.0, 1.0]));
    }

    #[test]
    fn bitwise_and_close_report_the_first_miss() {
        assert_eq!(bitwise(&[1.0, 2.0], &[1.0, 2.0]), Ok(()));
        assert!(bitwise(&[1.0, 2.0], &[1.0, 2.5])
            .unwrap_err()
            .starts_with("step 1"));
        assert!(bitwise(&[0.0], &[-0.0]).is_err(), "sign of zero is a bit");
        assert!(bitwise(&[1.0], &[]).is_err());
        assert_eq!(close(&[4.0], &[4.00001], 1e-5), Ok(()));
        assert!(close(&[4.0], &[4.01], 1e-5).is_err());
        assert!(close(&[f32::NAN], &[f32::NAN], 1.0).is_err());
        assert!(finite(&[1.0, f32::INFINITY]).is_err());
        assert!((max_rel_gap(&[1.0, 4.0], &[1.0, 4.5]) - 0.5 / 5.5).abs() < 1e-7);
        assert!(max_rel_gap(&[f32::NAN], &[1.0]).is_nan());
    }

    #[test]
    fn recorded_digest_round_trip() {
        let dir = std::env::temp_dir().join(format!("stepbench-digest-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(
            against_recorded(&dir, "w-1", 7),
            Ok(()),
            "first run records"
        );
        assert_eq!(
            against_recorded(&dir, "w-1", 7),
            Ok(()),
            "same digest passes"
        );
        assert!(
            against_recorded(&dir, "w-1", 8).is_err(),
            "different digest fails"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
