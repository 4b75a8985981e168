//! Column statistics (the properties Fang et al.'s planner inspects:
//! sortedness, average run length, number of distinct values, value
//! range), as `tlc stats` reports them.

use std::collections::HashSet;

/// Summary statistics of an integer column.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnStats {
    /// Number of values.
    pub count: usize,
    /// Minimum value (0 for an empty column).
    pub min: i32,
    /// Maximum value (0 for an empty column).
    pub max: i32,
    /// Exact number of distinct values.
    pub distinct: usize,
    /// Average run length (`count / runs`).
    pub avg_run_length: f64,
    /// Whether the column is non-decreasing.
    pub is_sorted: bool,
}

impl ColumnStats {
    /// Compute statistics in one pass (plus a hash set for distincts).
    pub fn compute(values: &[i32]) -> Self {
        if values.is_empty() {
            return ColumnStats {
                count: 0,
                min: 0,
                max: 0,
                distinct: 0,
                avg_run_length: 0.0,
                is_sorted: true,
            };
        }
        let mut min = values[0];
        let mut max = values[0];
        let mut runs = 1usize;
        let mut is_sorted = true;
        let mut distinct = HashSet::new();
        distinct.insert(values[0]);
        for w in values.windows(2) {
            let (a, b) = (w[0], w[1]);
            min = min.min(b);
            max = max.max(b);
            if b != a {
                runs += 1;
            }
            if b < a {
                is_sorted = false;
            }
            distinct.insert(b);
        }
        ColumnStats {
            count: values.len(),
            min,
            max,
            distinct: distinct.len(),
            avg_run_length: values.len() as f64 / runs as f64,
            is_sorted,
        }
    }

    /// Bits needed for the value *range* (what FOR + packing would use).
    pub fn range_bits(&self) -> u32 {
        let range = (self.max as i64 - self.min as i64) as u64;
        64 - range.leading_zeros()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_stats() {
        let s = ColumnStats::compute(&[3, 3, 3, 7, 7, 1]);
        assert_eq!(s.count, 6);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 7);
        assert_eq!(s.distinct, 3);
        assert!((s.avg_run_length - 2.0).abs() < 1e-12);
        assert!(!s.is_sorted);
    }

    #[test]
    fn sorted_detection() {
        assert!(ColumnStats::compute(&[1, 2, 2, 9]).is_sorted);
        assert!(!ColumnStats::compute(&[1, 2, 0]).is_sorted);
        assert!(ColumnStats::compute(&[]).is_sorted);
    }

    #[test]
    fn range_bits() {
        let s = ColumnStats::compute(&[100, 131]);
        assert_eq!(s.range_bits(), 5);
        let negatives = ColumnStats::compute(&[i32::MIN, i32::MAX]);
        assert_eq!(negatives.range_bits(), 32);
    }
}
