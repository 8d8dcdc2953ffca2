//! CSR interaction store — the PU-dataset of the paper.
//!
//! For each user `u` the store holds the sorted set of interacted items
//! `I⁺ᵤ`; everything else is the unlabeled pool `I⁻ᵤ` that negative sampling
//! draws from. The CSR layout gives cache-friendly iteration over a user's
//! positives and `O(log |I⁺ᵤ|)` membership tests, both of which sit in the
//! trainer's hot loop.
//!
//! The two CSR arrays live behind [`crate::storage::U32Buf`], so an
//! `Interactions` can either own its arrays (every mutation/construction
//! path) or borrow them zero-copy from a memory-mapped file
//! ([`crate::serialize::map_interactions`]). Every accessor returns plain
//! slices, so samplers, trainers and the serve engine are oblivious to the
//! backing store.

use crate::storage::U32Buf;
use crate::{DataError, Result};

/// Immutable user→item interaction matrix in CSR form.
///
/// Items within each user row are sorted ascending and deduplicated.
#[derive(Debug, Clone)]
pub struct Interactions {
    n_users: u32,
    n_items: u32,
    /// `offsets.len() == n_users + 1`; row `u` is `items[offsets[u]..offsets[u+1]]`.
    offsets: U32Buf,
    items: U32Buf,
}

impl PartialEq for Interactions {
    fn eq(&self, other: &Self) -> bool {
        self.n_users == other.n_users
            && self.n_items == other.n_items
            && self.offsets.as_slice() == other.offsets.as_slice()
            && self.items.as_slice() == other.items.as_slice()
    }
}

impl Eq for Interactions {}

/// Validates every CSR invariant over raw arrays: offsets shape and
/// monotonicity, strictly ascending in-range rows. Shared by the owned
/// and the zero-copy construction paths so mapped data is held to exactly
/// the same standard as decoded data.
pub(crate) fn validate_csr(
    n_users: u32,
    n_items: u32,
    offsets: &[u32],
    items: &[u32],
) -> Result<()> {
    if offsets.len() != n_users as usize + 1 {
        return Err(DataError::Invalid(format!(
            "offsets length {} does not match n_users {} + 1",
            offsets.len(),
            n_users
        )));
    }
    if offsets[0] != 0 || *offsets.last().expect("non-empty") as usize != items.len() {
        return Err(DataError::Invalid(
            "offsets must start at 0 and end at items.len()".into(),
        ));
    }
    for w in offsets.windows(2) {
        // The last offset equals items.len(), so a row that ends past the
        // items is a decrease further on.
        let row = items
            .get(w[0] as usize..w[1] as usize)
            .ok_or_else(|| DataError::Invalid("offsets must be non-decreasing".into()))?;
        if !row.windows(2).all(|p| p[0] < p[1]) {
            return Err(DataError::Invalid(
                "row items must be strictly ascending".into(),
            ));
        }
        if row.iter().any(|&i| i >= n_items) {
            return Err(DataError::Invalid("item id out of range".into()));
        }
    }
    Ok(())
}

impl Interactions {
    /// Builds from raw `(user, item)` pairs; duplicates are collapsed.
    ///
    /// `n_users`/`n_items` set the id space; any pair referencing an id out
    /// of range is an error.
    pub fn from_pairs(n_users: u32, n_items: u32, pairs: &[(u32, u32)]) -> Result<Self> {
        let mut builder = InteractionsBuilder::new(n_users, n_items);
        for &(u, i) in pairs {
            builder.push(u, i)?;
        }
        builder.build()
    }

    /// Number of users in the id space (including users with no interactions).
    pub fn n_users(&self) -> u32 {
        self.n_users
    }

    /// Number of items in the id space.
    pub fn n_items(&self) -> u32 {
        self.n_items
    }

    /// Total number of stored interactions (the paper's `N` in Eq. 17 when
    /// called on the training set).
    pub fn len(&self) -> usize {
        self.items.as_slice().len()
    }

    /// True when no interactions are stored.
    pub fn is_empty(&self) -> bool {
        self.items.as_slice().is_empty()
    }

    /// Whether the CSR arrays borrow from a memory-mapped file rather
    /// than owned heap memory.
    pub fn is_mapped(&self) -> bool {
        self.offsets.is_mapped() || self.items.is_mapped()
    }

    /// The sorted item slice of user `u` (`I⁺ᵤ`).
    pub fn items_of(&self, u: u32) -> &[u32] {
        debug_assert!(u < self.n_users, "user id out of range");
        let offsets = self.offsets.as_slice();
        let lo = offsets[u as usize] as usize;
        let hi = offsets[u as usize + 1] as usize;
        &self.items.as_slice()[lo..hi]
    }

    /// Degree of user `u` (number of positives).
    pub fn degree(&self, u: u32) -> usize {
        self.items_of(u).len()
    }

    /// Whether `(u, i)` is an observed interaction — `O(log deg(u))`.
    pub fn contains(&self, u: u32, i: u32) -> bool {
        self.items_of(u).binary_search(&i).is_ok()
    }

    /// Number of un-interacted items of `u` (`|I⁻ᵤ|`).
    pub fn n_negatives(&self, u: u32) -> usize {
        self.n_items as usize - self.degree(u)
    }

    /// Iterates all `(user, item)` pairs in row order.
    pub fn iter_pairs(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        (0..self.n_users).flat_map(move |u| self.items_of(u).iter().map(move |&i| (u, i)))
    }

    /// Per-item interaction counts (`popₗ` of Eq. 17).
    pub fn item_counts(&self) -> Vec<u32> {
        let mut counts = vec![0u32; self.n_items as usize];
        for &i in self.items.as_slice() {
            counts[i as usize] += 1;
        }
        counts
    }

    /// Users with at least one interaction.
    pub fn active_users(&self) -> Vec<u32> {
        (0..self.n_users).filter(|&u| self.degree(u) > 0).collect()
    }

    /// Raw CSR parts `(n_users, n_items, offsets, items)`, for serialization
    /// and for the LightGCN adjacency builder.
    pub fn csr_parts(&self) -> (u32, u32, &[u32], &[u32]) {
        (
            self.n_users,
            self.n_items,
            self.offsets.as_slice(),
            self.items.as_slice(),
        )
    }

    /// Rebuilds from CSR parts, validating every invariant. The inverse of
    /// [`Interactions::csr_parts`].
    pub fn from_csr_parts(
        n_users: u32,
        n_items: u32,
        offsets: Vec<u32>,
        items: Vec<u32>,
    ) -> Result<Self> {
        validate_csr(n_users, n_items, &offsets, &items)?;
        Ok(Self {
            n_users,
            n_items,
            offsets: offsets.into(),
            items: items.into(),
        })
    }

    /// Builds from pre-validated-shape buffers (owned **or** mapped),
    /// running the same invariant validation as
    /// [`Interactions::from_csr_parts`]. Zero-copy loaders use this to
    /// wrap views into a shared [`crate::storage::Storage`].
    pub fn from_csr_views(
        n_users: u32,
        n_items: u32,
        offsets: U32Buf,
        items: U32Buf,
    ) -> Result<Self> {
        validate_csr(n_users, n_items, offsets.as_slice(), items.as_slice())?;
        Ok(Self {
            n_users,
            n_items,
            offsets,
            items,
        })
    }

    /// Merges two interaction sets over the same id space (used to rebuild
    /// the full dataset from a train/test split, e.g. for Fig. 1 labeling).
    pub fn union(&self, other: &Interactions) -> Result<Interactions> {
        if self.n_users != other.n_users || self.n_items != other.n_items {
            return Err(DataError::Invalid("union: id spaces differ".into()));
        }
        let mut builder = InteractionsBuilder::new(self.n_users, self.n_items);
        for (u, i) in self.iter_pairs().chain(other.iter_pairs()) {
            builder.push(u, i)?;
        }
        builder.build()
    }
}

/// Incremental builder for [`Interactions`].
#[derive(Debug, Clone)]
pub struct InteractionsBuilder {
    n_users: u32,
    n_items: u32,
    pairs: Vec<(u32, u32)>,
}

impl InteractionsBuilder {
    /// Starts an empty builder over the given id space.
    pub fn new(n_users: u32, n_items: u32) -> Self {
        Self {
            n_users,
            n_items,
            pairs: Vec::new(),
        }
    }

    /// Pre-allocates capacity for `n` pairs.
    pub fn with_capacity(n_users: u32, n_items: u32, n: usize) -> Self {
        Self {
            n_users,
            n_items,
            pairs: Vec::with_capacity(n),
        }
    }

    /// Adds one `(user, item)` pair; range-checked.
    pub fn push(&mut self, u: u32, i: u32) -> Result<()> {
        if u >= self.n_users {
            return Err(DataError::Invalid(format!(
                "user id {u} out of range (n_users = {})",
                self.n_users
            )));
        }
        if i >= self.n_items {
            return Err(DataError::Invalid(format!(
                "item id {i} out of range (n_items = {})",
                self.n_items
            )));
        }
        self.pairs.push((u, i));
        Ok(())
    }

    /// Number of pairs pushed so far (before dedup).
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Whether no pairs were pushed.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Sorts, deduplicates and freezes into an [`Interactions`].
    pub fn build(mut self) -> Result<Interactions> {
        self.pairs.sort_unstable();
        self.pairs.dedup();
        let mut offsets = Vec::with_capacity(self.n_users as usize + 1);
        let mut items = Vec::with_capacity(self.pairs.len());
        offsets.push(0u32);
        let mut cursor = 0usize;
        for u in 0..self.n_users {
            while cursor < self.pairs.len() && self.pairs[cursor].0 == u {
                items.push(self.pairs[cursor].1);
                cursor += 1;
            }
            offsets.push(items.len() as u32);
        }
        debug_assert_eq!(cursor, self.pairs.len());
        Ok(Interactions {
            n_users: self.n_users,
            n_items: self.n_items,
            offsets: offsets.into(),
            items: items.into(),
        })
    }

    /// Builds a CSR **directly from an in-order row stream** — the
    /// constant-overhead path of the streamed synthetic generator: no
    /// global pair buffer, no `O(N log N)` sort; memory is exactly the
    /// output CSR.
    ///
    /// `rows` yields `(user, items)` with users strictly ascending (users
    /// absent from the stream get empty rows) and each row's items sorted
    /// strictly ascending; violations and out-of-range ids are typed
    /// errors, as is a total interaction count that would overflow the
    /// `u32` offset space.
    ///
    /// ```
    /// use bns_data::{Interactions, InteractionsBuilder};
    ///
    /// let rows: Vec<(u32, Vec<u32>)> = vec![(0, vec![1, 3]), (2, vec![0])];
    /// let x = InteractionsBuilder::from_stream(
    ///     3,
    ///     4,
    ///     rows.iter().map(|(u, row)| Ok((*u, row.as_slice()))),
    /// )?;
    /// assert_eq!(x.items_of(0), &[1, 3]);
    /// assert!(x.items_of(1).is_empty());
    /// assert_eq!(x.items_of(2), &[0]);
    /// # Ok::<(), bns_data::DataError>(())
    /// ```
    pub fn from_stream<'a, I>(n_users: u32, n_items: u32, rows: I) -> Result<Interactions>
    where
        I: IntoIterator<Item = Result<(u32, &'a [u32])>>,
    {
        let mut stream = RowStreamBuilder::new(n_users, n_items);
        for row in rows {
            let (u, items) = row?;
            stream.push_row(u, items)?;
        }
        stream.finish()
    }
}

/// The push-style core behind [`InteractionsBuilder::from_stream`]: rows
/// arrive in ascending user order and are appended straight into the CSR
/// arrays. Generators that reuse a per-row scratch buffer drive this
/// directly to stay allocation-flat per row.
#[derive(Debug)]
pub struct RowStreamBuilder {
    n_users: u32,
    n_items: u32,
    offsets: Vec<u32>,
    items: Vec<u32>,
}

impl RowStreamBuilder {
    /// Starts an empty stream over the given id space.
    pub fn new(n_users: u32, n_items: u32) -> Self {
        let mut offsets = Vec::with_capacity(n_users as usize + 1);
        offsets.push(0);
        Self {
            n_users,
            n_items,
            offsets,
            items: Vec::new(),
        }
    }

    /// Pre-sizes the item array for an expected interaction total.
    pub fn reserve(&mut self, n: usize) {
        self.items.reserve(n);
    }

    /// Appends user `u`'s full row. `u` must be ≥ every previously pushed
    /// user + 1 (skipped users get empty rows); `row` must be strictly
    /// ascending and in item range.
    pub fn push_row(&mut self, u: u32, row: &[u32]) -> Result<()> {
        let next = self.offsets.len() as u32 - 1;
        if u < next || u >= self.n_users {
            return Err(DataError::Invalid(format!(
                "stream row for user {u} out of order or out of range (next expected ≥ {next}, n_users = {})",
                self.n_users
            )));
        }
        if !row.windows(2).all(|p| p[0] < p[1]) {
            return Err(DataError::Invalid(format!(
                "stream row for user {u} is not strictly ascending"
            )));
        }
        if row.last().is_some_and(|&i| i >= self.n_items) {
            return Err(DataError::Invalid(format!(
                "stream row for user {u} references an item ≥ n_items {}",
                self.n_items
            )));
        }
        if self.items.len() + row.len() > u32::MAX as usize {
            return Err(DataError::Invalid(
                "interaction count overflows the u32 CSR offset space".into(),
            ));
        }
        // Empty rows for users skipped by the stream.
        for _ in next..u {
            self.offsets.push(self.items.len() as u32);
        }
        self.items.extend_from_slice(row);
        self.offsets.push(self.items.len() as u32);
        Ok(())
    }

    /// Interactions pushed so far.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether no interactions were pushed.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Closes out trailing empty rows and freezes the CSR. Invariants
    /// were enforced row-by-row, so this cannot fail structurally — the
    /// debug re-validation documents the claim.
    pub fn finish(mut self) -> Result<Interactions> {
        while self.offsets.len() < self.n_users as usize + 1 {
            self.offsets.push(self.items.len() as u32);
        }
        debug_assert!(
            validate_csr(self.n_users, self.n_items, &self.offsets, &self.items).is_ok(),
            "row-stream invariants must imply CSR invariants"
        );
        Ok(Interactions {
            n_users: self.n_users,
            n_items: self.n_items,
            offsets: self.offsets.into(),
            items: self.items.into(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Interactions {
        Interactions::from_pairs(3, 5, &[(0, 1), (0, 3), (1, 0), (1, 1), (1, 4), (2, 2)]).unwrap()
    }

    #[test]
    fn basic_accessors() {
        let x = sample();
        assert_eq!(x.n_users(), 3);
        assert_eq!(x.n_items(), 5);
        assert_eq!(x.len(), 6);
        assert!(!x.is_empty());
        assert!(!x.is_mapped());
        assert_eq!(x.items_of(0), &[1, 3]);
        assert_eq!(x.items_of(1), &[0, 1, 4]);
        assert_eq!(x.items_of(2), &[2]);
        assert_eq!(x.degree(1), 3);
        assert_eq!(x.n_negatives(0), 3);
    }

    #[test]
    fn membership() {
        let x = sample();
        assert!(x.contains(0, 1));
        assert!(x.contains(0, 3));
        assert!(!x.contains(0, 0));
        assert!(!x.contains(2, 4));
    }

    #[test]
    fn duplicates_are_collapsed() {
        let x = Interactions::from_pairs(2, 2, &[(0, 1), (0, 1), (0, 1)]).unwrap();
        assert_eq!(x.len(), 1);
        assert_eq!(x.items_of(0), &[1]);
    }

    #[test]
    fn out_of_range_rejected() {
        assert!(Interactions::from_pairs(2, 2, &[(2, 0)]).is_err());
        assert!(Interactions::from_pairs(2, 2, &[(0, 2)]).is_err());
    }

    #[test]
    fn empty_rows_are_fine() {
        let x = Interactions::from_pairs(4, 3, &[(1, 2)]).unwrap();
        assert_eq!(x.items_of(0), &[] as &[u32]);
        assert_eq!(x.items_of(3), &[] as &[u32]);
        assert_eq!(x.active_users(), vec![1]);
    }

    #[test]
    fn iter_pairs_round_trips() {
        let x = sample();
        let pairs: Vec<(u32, u32)> = x.iter_pairs().collect();
        let y = Interactions::from_pairs(3, 5, &pairs).unwrap();
        assert_eq!(x, y);
    }

    #[test]
    fn item_counts_are_correct() {
        let x = sample();
        assert_eq!(x.item_counts(), vec![1, 2, 1, 1, 1]);
    }

    #[test]
    fn csr_parts_round_trip() {
        let x = sample();
        let (nu, ni, offs, items) = x.csr_parts();
        let y = Interactions::from_csr_parts(nu, ni, offs.to_vec(), items.to_vec()).unwrap();
        assert_eq!(x, y);
    }

    #[test]
    fn from_csr_parts_validates() {
        // Wrong offsets length.
        assert!(Interactions::from_csr_parts(2, 2, vec![0, 1], vec![0]).is_err());
        // Non-monotone offsets.
        assert!(Interactions::from_csr_parts(2, 2, vec![0, 1, 0], vec![0]).is_err());
        // Unsorted row.
        assert!(Interactions::from_csr_parts(1, 3, vec![0, 2], vec![2, 1]).is_err());
        // Duplicate within row.
        assert!(Interactions::from_csr_parts(1, 3, vec![0, 2], vec![1, 1]).is_err());
        // Item out of range.
        assert!(Interactions::from_csr_parts(1, 2, vec![0, 1], vec![5]).is_err());
        // End offset mismatch.
        assert!(Interactions::from_csr_parts(1, 2, vec![0, 2], vec![1]).is_err());
    }

    #[test]
    fn union_merges_and_dedups() {
        let a = Interactions::from_pairs(2, 3, &[(0, 0), (1, 1)]).unwrap();
        let b = Interactions::from_pairs(2, 3, &[(0, 0), (0, 2)]).unwrap();
        let u = a.union(&b).unwrap();
        assert_eq!(u.len(), 3);
        assert!(u.contains(0, 0) && u.contains(0, 2) && u.contains(1, 1));

        let c = Interactions::from_pairs(3, 3, &[]).unwrap();
        assert!(a.union(&c).is_err());
    }

    #[test]
    fn builder_incremental() {
        let mut b = InteractionsBuilder::with_capacity(2, 2, 4);
        assert!(b.is_empty());
        b.push(0, 0).unwrap();
        b.push(1, 1).unwrap();
        assert_eq!(b.len(), 2);
        assert!(b.push(9, 0).is_err());
        assert!(b.push(0, 9).is_err());
        let x = b.build().unwrap();
        assert_eq!(x.len(), 2);
    }

    #[test]
    fn stream_builder_matches_pair_builder() {
        // The same data through both construction paths must be equal.
        let x = sample();
        let rows: Vec<(u32, Vec<u32>)> = (0..3u32).map(|u| (u, x.items_of(u).to_vec())).collect();
        let y = InteractionsBuilder::from_stream(
            3,
            5,
            rows.iter().map(|(u, row)| Ok((*u, row.as_slice()))),
        )
        .unwrap();
        assert_eq!(x, y);
    }

    #[test]
    fn stream_builder_fills_skipped_and_trailing_rows() {
        let mut b = RowStreamBuilder::new(5, 4);
        b.push_row(1, &[0, 2]).unwrap();
        b.push_row(3, &[3]).unwrap();
        let x = b.finish().unwrap();
        assert_eq!(x.items_of(0), &[] as &[u32]);
        assert_eq!(x.items_of(1), &[0, 2]);
        assert_eq!(x.items_of(2), &[] as &[u32]);
        assert_eq!(x.items_of(3), &[3]);
        assert_eq!(x.items_of(4), &[] as &[u32]);
    }

    #[test]
    fn stream_builder_rejects_violations() {
        let mut b = RowStreamBuilder::new(3, 4);
        b.push_row(1, &[0]).unwrap();
        // Out of order.
        assert!(b.push_row(0, &[1]).is_err());
        // Same user twice.
        assert!(b.push_row(1, &[1]).is_err());
        // Out of user range.
        assert!(b.push_row(3, &[1]).is_err());
        // Unsorted row.
        assert!(b.push_row(2, &[2, 1]).is_err());
        // Duplicate within row.
        assert!(b.push_row(2, &[1, 1]).is_err());
        // Item out of range.
        assert!(b.push_row(2, &[4]).is_err());
    }

    #[test]
    fn stream_builder_empty_stream_is_all_empty_rows() {
        let x = RowStreamBuilder::new(3, 2).finish().unwrap();
        assert!(x.is_empty());
        assert_eq!(x.n_users(), 3);
        assert_eq!(x.degree(2), 0);
    }
}
