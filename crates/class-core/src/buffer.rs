//! Contiguous sliding buffers used by the streaming algorithms.
//!
//! The hot path of ClaSS reads *all* buffered elements on every update, so
//! the buffers keep every live element in one contiguous slice. They
//! allocate a quarter of slack past their capacity (`capacity +
//! max(1, capacity / 4)` slots) and, when the live region reaches the end
//! of the allocation, move it back to the front with one `copy_within`.
//! A full buffer compacts once every `max(1, capacity / 4)` pushes, so a
//! push moves about 4 elements amortised (at most `capacity - 1` once in a
//! while) and allocates nothing. This mirrors the advice in the Rust
//! performance guide: keep hot data linear and allocation-free.

/// Divisor of the slack: a buffer of capacity `c` allocates
/// `c + max(1, c / SLACK_DIV)` slots. A larger divisor saves memory and
/// compacts more often; each compaction moves `c - 1` elements.
const SLACK_DIV: usize = 4;

/// Slots allocated for a buffer of capacity `capacity` (see [`SLACK_DIV`]).
fn allocation(capacity: usize) -> usize {
    capacity + (capacity / SLACK_DIV).max(1)
}

/// A fixed-capacity sliding window over `T` values with a contiguous view.
///
/// `push` appends to the logical end; once `capacity` elements are stored the
/// oldest element is evicted. Physically the buffer holds
/// `capacity + max(1, capacity / 4)` slots and compacts with a single
/// `copy_within` when the live region reaches the last slot, which makes
/// `push` amortized O(1) while `as_slice` stays contiguous.
#[derive(Debug, Clone)]
pub struct ShiftBuffer<T: Copy + Default> {
    data: Vec<T>,
    capacity: usize,
    start: usize,
    len: usize,
}

impl<T: Copy + Default> ShiftBuffer<T> {
    /// Creates an empty buffer that keeps at most `capacity` elements.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ShiftBuffer capacity must be positive");
        Self {
            data: vec![T::default(); allocation(capacity)],
            capacity,
            start: 0,
            len: 0,
        }
    }

    /// Appends `value`, evicting the oldest element if the buffer is full.
    ///
    /// Returns `true` if an element was evicted. Amortised O(1): a full
    /// buffer moves its `capacity - 1` retained elements to the front once
    /// every `max(1, capacity / 4)` pushes, about 4 moves per push.
    #[inline]
    pub fn push(&mut self, value: T) -> bool {
        let evicted = if self.len == self.capacity {
            self.start += 1;
            self.len -= 1;
            true
        } else {
            false
        };
        if self.start + self.len == self.data.len() {
            // Compact: move the live region back to the front.
            self.data.copy_within(self.start..self.start + self.len, 0);
            self.start = 0;
        }
        self.data[self.start + self.len] = value;
        self.len += 1;
        evicted
    }

    /// Number of live elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the buffer holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether the buffer is at capacity (the next push evicts).
    #[inline]
    pub fn is_full(&self) -> bool {
        self.len == self.capacity
    }

    /// Maximum number of retained elements.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Contiguous view of the live elements, oldest first.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.data[self.start..self.start + self.len]
    }

    /// Mutable contiguous view of the live elements, oldest first.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data[self.start..self.start + self.len]
    }

    /// Element at logical index `i` (0 = oldest).
    #[inline]
    pub fn get(&self, i: usize) -> T {
        debug_assert!(i < self.len);
        self.data[self.start + i]
    }

    /// Removes all elements without releasing memory.
    pub fn clear(&mut self) {
        self.start = 0;
        self.len = 0;
    }
}

/// A sliding matrix with a fixed number of columns and row-wise eviction.
///
/// Rows are appended with [`ShiftMatrix::push_row`]; once `row_capacity` rows
/// are live, the oldest row is evicted. Storage is a flat, contiguous
/// row-major buffer of `row_capacity + max(1, row_capacity / 4)` rows,
/// compacted lazily like [`ShiftBuffer`]. Used for the
/// k-NN index (`N`) and score (`C`) tables of the streaming k-NN, which are
/// scanned fully on every stream update.
#[derive(Debug, Clone)]
pub struct ShiftMatrix<T: Copy + Default> {
    data: Vec<T>,
    cols: usize,
    row_capacity: usize,
    start_row: usize,
    rows: usize,
}

impl<T: Copy + Default> ShiftMatrix<T> {
    /// Creates an empty matrix with `cols` columns keeping at most
    /// `row_capacity` rows.
    ///
    /// # Panics
    /// Panics if `cols == 0` or `row_capacity == 0`.
    pub fn new(row_capacity: usize, cols: usize) -> Self {
        assert!(cols > 0, "ShiftMatrix needs at least one column");
        assert!(
            row_capacity > 0,
            "ShiftMatrix row capacity must be positive"
        );
        Self {
            data: vec![T::default(); allocation(row_capacity) * cols],
            cols,
            row_capacity,
            start_row: 0,
            rows: 0,
        }
    }

    /// Appends a row (padded/truncated semantics are the caller's concern;
    /// `row` must have exactly `cols` elements). Evicts the oldest row when
    /// full. Returns `true` if a row was evicted. Amortised O(`cols`): a
    /// full matrix moves its `row_capacity - 1` retained rows to the front
    /// once every `max(1, row_capacity / 4)` pushes.
    pub fn push_row(&mut self, row: &[T]) -> bool {
        debug_assert_eq!(row.len(), self.cols);
        let evicted = if self.rows == self.row_capacity {
            self.start_row += 1;
            self.rows -= 1;
            true
        } else {
            false
        };
        if (self.start_row + self.rows + 1) * self.cols > self.data.len() {
            let src = self.start_row * self.cols..(self.start_row + self.rows) * self.cols;
            self.data.copy_within(src, 0);
            self.start_row = 0;
        }
        let at = (self.start_row + self.rows) * self.cols;
        self.data[at..at + self.cols].copy_from_slice(row);
        self.rows += 1;
        evicted
    }

    /// Number of live rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Row `r` (0 = oldest) as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[T] {
        debug_assert!(r < self.rows);
        let at = (self.start_row + r) * self.cols;
        &self.data[at..at + self.cols]
    }

    /// Mutable row `r` (0 = oldest).
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [T] {
        debug_assert!(r < self.rows);
        let at = (self.start_row + r) * self.cols;
        &mut self.data[at..at + self.cols]
    }

    /// Contiguous view of all live rows, row-major, oldest row first.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.data[self.start_row * self.cols..(self.start_row + self.rows) * self.cols]
    }

    /// Removes all rows without releasing memory.
    pub fn clear(&mut self) {
        self.start_row = 0;
        self.rows = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shift_buffer_basic_push_and_view() {
        let mut b = ShiftBuffer::new(3);
        assert!(b.is_empty());
        assert!(!b.push(1));
        assert!(!b.push(2));
        assert!(!b.push(3));
        assert!(b.is_full());
        assert_eq!(b.as_slice(), &[1, 2, 3]);
        assert!(b.push(4));
        assert_eq!(b.as_slice(), &[2, 3, 4]);
        assert_eq!(b.get(0), 2);
        assert_eq!(b.get(2), 4);
    }

    #[test]
    fn shift_buffer_stays_contiguous_over_many_wraps() {
        let mut b = ShiftBuffer::new(5);
        for i in 0..1000u64 {
            b.push(i);
            let s = b.as_slice();
            assert_eq!(s.len(), (i as usize + 1).min(5));
            // Oldest-first ordering check.
            for (j, &v) in s.iter().enumerate() {
                assert_eq!(v, i + 1 - s.len() as u64 + j as u64);
            }
        }
    }

    #[test]
    fn shift_buffer_capacity_one() {
        let mut b = ShiftBuffer::new(1);
        b.push(10);
        assert_eq!(b.as_slice(), &[10]);
        assert!(b.push(20));
        assert_eq!(b.as_slice(), &[20]);
    }

    #[test]
    fn shift_buffer_clear_resets() {
        let mut b = ShiftBuffer::new(4);
        for i in 0..10 {
            b.push(i);
        }
        b.clear();
        assert!(b.is_empty());
        b.push(42);
        assert_eq!(b.as_slice(), &[42]);
    }

    #[test]
    #[should_panic]
    fn shift_buffer_zero_capacity_panics() {
        let _ = ShiftBuffer::<f64>::new(0);
    }

    #[test]
    fn shift_matrix_push_evict_and_rows() {
        let mut m = ShiftMatrix::new(2, 3);
        m.push_row(&[1, 2, 3]);
        m.push_row(&[4, 5, 6]);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.row(0), &[1, 2, 3]);
        assert_eq!(m.row(1), &[4, 5, 6]);
        assert!(m.push_row(&[7, 8, 9]));
        assert_eq!(m.rows(), 2);
        assert_eq!(m.row(0), &[4, 5, 6]);
        assert_eq!(m.row(1), &[7, 8, 9]);
        assert_eq!(m.as_slice(), &[4, 5, 6, 7, 8, 9]);
    }

    #[test]
    fn shift_matrix_many_wraps_keep_order() {
        let mut m = ShiftMatrix::new(4, 2);
        for i in 0..500i64 {
            m.push_row(&[i, -i]);
            let rows = m.rows();
            for r in 0..rows {
                let expect = i - (rows as i64 - 1) + r as i64;
                assert_eq!(m.row(r), &[expect, -expect]);
            }
        }
    }

    #[test]
    fn shift_matrix_row_mut_updates_in_place() {
        let mut m = ShiftMatrix::new(3, 2);
        m.push_row(&[0.0, 0.0]);
        m.push_row(&[1.0, 1.0]);
        m.row_mut(0)[1] = 9.5;
        assert_eq!(m.row(0), &[0.0, 9.5]);
        assert_eq!(m.row(1), &[1.0, 1.0]);
    }
}
