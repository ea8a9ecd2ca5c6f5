//! Columnar survivor tables for the window scan.
//!
//! The first half of recognition's window scan (the streaming scanner in
//! [`crate::scanner`]) reduces a trace bit-string to the *distinct*
//! surviving 64-bit window values; the second half decrypts each value
//! once. [`Survivors`] is the currency between the halves: a sorted
//! columnar table with one row per distinct value and three parallel
//! columns —
//!
//! * **values** — the distinct window values, strictly ascending;
//! * **multiplicities** — how many scan offsets produced each value
//!   (exact, including offsets the pre-reject bulk-accounted without
//!   rolling through them);
//! * **first offsets** — the lowest scan offset at which each value was
//!   observed in the range.
//!
//! The layout is deliberately struct-of-arrays rather than a vector of
//! per-window structs: the decryption half streams the `values` column
//! through the batched cipher ([`pathmark_crypto::Xtea::decrypt_batch`])
//! in contiguous lanes, and the sorted order lets the session decode
//! memo be merge-joined against it.

/// A sorted columnar table of distinct surviving window values; see the
/// module docs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Survivors {
    values: Vec<u64>,
    multiplicities: Vec<u64>,
    first_offsets: Vec<u64>,
}

impl Survivors {
    /// An empty table.
    pub fn new() -> Survivors {
        Survivors::default()
    }

    /// Builds a table from unsorted `(value, multiplicity, first
    /// offset)` entries: sorts by value and folds duplicate values
    /// together (multiplicities sum, first offsets take the minimum).
    ///
    /// Surviving window values are close to uniform (they are 64 bits
    /// of branch history dense enough to escape the constant-run
    /// reject), so the sort first scatters entries into 256 buckets by
    /// top byte and comparison-sorts each small bucket — near-linear on
    /// real traces, and merely a full sort in the adversarial
    /// one-bucket case.
    pub fn from_entries(entries: Vec<(u64, u64, u64)>) -> Survivors {
        let mut counts = [0usize; 256];
        for &(value, _, _) in &entries {
            counts[(value >> 56) as usize] += 1;
        }
        let mut starts = [0usize; 256];
        let mut total = 0usize;
        for (bucket, &count) in counts.iter().enumerate() {
            starts[bucket] = total;
            total += count;
        }
        let mut sorted: Vec<(u64, u64, u64)> = vec![(0, 0, 0); entries.len()];
        let mut cursor = starts;
        for entry in entries {
            let bucket = (entry.0 >> 56) as usize;
            sorted[cursor[bucket]] = entry;
            cursor[bucket] += 1;
        }
        for (bucket, &start) in starts.iter().enumerate() {
            sorted[start..start + counts[bucket]].sort_unstable();
        }
        let entries = sorted;
        let mut table = Survivors {
            values: Vec::with_capacity(entries.len()),
            multiplicities: Vec::with_capacity(entries.len()),
            first_offsets: Vec::with_capacity(entries.len()),
        };
        for (value, multiplicity, first_offset) in entries {
            match table.values.last() {
                Some(&v) if v == value => {
                    let last = table.values.len() - 1;
                    table.multiplicities[last] += multiplicity;
                    table.first_offsets[last] = table.first_offsets[last].min(first_offset);
                }
                _ => {
                    table.values.push(value);
                    table.multiplicities.push(multiplicity);
                    table.first_offsets.push(first_offset);
                }
            }
        }
        table
    }

    /// Number of distinct surviving values (table rows).
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The distinct window values, strictly ascending.
    pub fn values(&self) -> &[u64] {
        &self.values
    }

    /// Per-value occurrence counts, parallel to [`Survivors::values`].
    pub fn multiplicities(&self) -> &[u64] {
        &self.multiplicities
    }

    /// Per-value lowest scan offset, parallel to [`Survivors::values`].
    pub fn first_offsets(&self) -> &[u64] {
        &self.first_offsets
    }

    /// Total windows accounted, `sum(multiplicities)`.
    pub fn total_windows(&self) -> u64 {
        self.multiplicities.iter().sum()
    }

    /// Iterates rows as `(value, multiplicity, first offset)`, in
    /// ascending value order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.values
            .iter()
            .zip(&self.multiplicities)
            .zip(&self.first_offsets)
            .map(|((&v, &m), &f)| (v, m, f))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_entries_sorts_and_folds_duplicates() {
        let table = Survivors::from_entries(vec![
            (30, 2, 700),
            (10, 1, 500),
            (30, 5, 40),
            (20, 3, 600),
            (10, 4, 90),
        ]);
        assert_eq!(table.len(), 3);
        assert_eq!(table.values(), &[10, 20, 30]);
        assert_eq!(table.multiplicities(), &[5, 3, 7]);
        assert_eq!(table.first_offsets(), &[90, 600, 40]);
        assert_eq!(table.total_windows(), 15);
        assert_eq!(
            table.iter().collect::<Vec<_>>(),
            vec![(10, 5, 90), (20, 3, 600), (30, 7, 40)]
        );
    }
}
