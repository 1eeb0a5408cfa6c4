//! The benchmark's own correctness oracles, written apart from the program:
//! patience-sorting LIS over a whole sequence, a window and a value range,
//! and a witness validator.

/// Length of the longest strictly increasing subsequence (patience sorting).
pub fn lis_len(seq: &[u32]) -> usize {
    let mut tails: Vec<u32> = Vec::new();
    for &x in seq {
        let at = tails.partition_point(|&t| t < x);
        if at == tails.len() {
            tails.push(x);
        } else {
            tails[at] = x;
        }
    }
    tails.len()
}

/// `LIS(seq[l..r))`.
pub fn lis_window(seq: &[u32], l: usize, r: usize) -> usize {
    lis_len(&seq[l..r])
}

/// LIS of the subsequence of values in `[lo, hi)`.
pub fn lis_value_range(seq: &[u32], lo: u32, hi: u32) -> usize {
    let kept: Vec<u32> = seq
        .iter()
        .copied()
        .filter(|v| (lo..hi).contains(v))
        .collect();
    lis_len(&kept)
}

/// Checks that `positions` is a longest increasing subsequence of the values
/// of `seq` in `[lo, hi)`: positions increase, values strictly increase and
/// lie in range, and the length is `expected` (the oracle's).
pub fn check_witness(
    seq: &[u32],
    positions: &[usize],
    lo: u32,
    hi: u32,
    expected: usize,
) -> Result<(), String> {
    if positions.len() != expected {
        return Err(format!(
            "witness has {} elements, the LIS of values in [{lo}, {hi}) has {expected}",
            positions.len()
        ));
    }
    for &p in positions {
        match seq.get(p) {
            None => return Err(format!("witness position {p} is out of bounds")),
            Some(&v) if !(lo..hi).contains(&v) => {
                return Err(format!("witness value {v} at {p} is outside [{lo}, {hi})"))
            }
            Some(_) => {}
        }
    }
    for pair in positions.windows(2) {
        if pair[0] >= pair[1] {
            return Err(format!(
                "witness positions {} then {} do not increase",
                pair[0], pair[1]
            ));
        }
        if seq[pair[0]] >= seq[pair[1]] {
            return Err(format!(
                "witness values {} then {} do not strictly increase",
                seq[pair[0]], seq[pair[1]]
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Rng;

    /// LIS by trying every subset.
    fn brute_lis(seq: &[u32]) -> usize {
        let n = seq.len();
        (0u32..1 << n)
            .filter(|mask| {
                let picked: Vec<u32> = (0..n)
                    .filter(|i| mask >> i & 1 == 1)
                    .map(|i| seq[i])
                    .collect();
                picked.windows(2).all(|w| w[0] < w[1])
            })
            .map(|mask| mask.count_ones() as usize)
            .max()
            .unwrap_or(0)
    }

    #[test]
    fn patience_matches_brute_force_on_windows_and_ranges() {
        let mut rng = Rng::new(3, "oracle");
        for _ in 0..300 {
            let n = rng.below(11);
            let seq: Vec<u32> = (0..n).map(|_| rng.below(6) as u32).collect();
            assert_eq!(lis_len(&seq), brute_lis(&seq), "{seq:?}");
            for l in 0..=n {
                for r in l..=n {
                    assert_eq!(lis_window(&seq, l, r), brute_lis(&seq[l..r]));
                }
            }
            for lo in 0..7 {
                for hi in lo..8 {
                    let kept: Vec<u32> = seq
                        .iter()
                        .copied()
                        .filter(|v| (lo..hi).contains(v))
                        .collect();
                    assert_eq!(lis_value_range(&seq, lo, hi), brute_lis(&kept));
                }
            }
        }
    }

    #[test]
    fn witness_validator_accepts_real_and_rejects_broken_witnesses() {
        let seq = [3, 1, 4, 1, 5, 9, 2, 6];
        assert_eq!(lis_len(&seq), 4);
        assert!(check_witness(&seq, &[0, 2, 4, 5], 0, 10, 4).is_ok());
        assert!(check_witness(&seq, &[1, 6, 7], 1, 7, 3).is_ok());
        // Too short, out of order, not increasing, out of range, out of bounds.
        assert!(check_witness(&seq, &[0, 2, 4], 0, 10, 4).is_err());
        assert!(check_witness(&seq, &[2, 0, 4, 5], 0, 10, 4).is_err());
        assert!(check_witness(&seq, &[0, 1, 4, 5], 0, 10, 4).is_err());
        assert!(check_witness(&seq, &[0, 2, 4, 5], 0, 9, 4).is_err());
        assert!(check_witness(&seq, &[0, 2, 4, 99], 0, 10, 4).is_err());
    }
}
