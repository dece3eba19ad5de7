//! A fixed-capacity, stack-allocated vector for the allocation-free data
//! path.
//!
//! The hot paths of the Ditto client deal in small, bounded collections — the
//! ≤16 slots of a two-bucket lookup, the ≤33 candidates of an eviction
//! sample, one victim pick per expert — that the seed implementation kept in
//! heap `Vec`s, costing an allocation per operation.  [`InlineVec`] stores up
//! to `N` `Copy` elements inline, dereferences to a slice, and never touches
//! the heap.

use std::ops::{Deref, DerefMut};

/// A `Vec`-like container of at most `N` `Copy` elements, stored inline.
#[derive(Debug, Clone, Copy)]
pub struct InlineVec<T: Copy + Default, const N: usize> {
    items: [T; N],
    len: usize,
}

impl<T: Copy + Default, const N: usize> InlineVec<T, N> {
    /// Creates an empty vector.
    pub fn new() -> Self {
        InlineVec {
            items: [T::default(); N],
            len: 0,
        }
    }

    /// Maximum number of elements.
    pub const fn capacity(&self) -> usize {
        N
    }

    /// Appends an element.
    ///
    /// # Panics
    ///
    /// Panics when full; hot paths size `N` from validated configuration
    /// bounds, so overflow is a logic error rather than a runtime condition.
    pub fn push(&mut self, value: T) {
        assert!(self.len < N, "InlineVec overflow (capacity {N})");
        self.items[self.len] = value;
        self.len += 1;
    }

    /// Appends an element, returning `false` (and dropping the element) when
    /// full.
    pub fn push_saturating(&mut self, value: T) -> bool {
        if self.len < N {
            self.items[self.len] = value;
            self.len += 1;
            true
        } else {
            false
        }
    }

    /// Removes all elements (O(1); elements are `Copy`).
    pub fn clear(&mut self) {
        self.len = 0;
    }

    /// Removes and returns the element at `index` in O(1) by moving the
    /// last element into its place (order is not preserved).
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of bounds.
    pub fn swap_remove(&mut self, index: usize) -> T {
        assert!(
            index < self.len,
            "swap_remove index {index} out of bounds (len {})",
            self.len
        );
        let value = self.items[index];
        self.items[index] = self.items[self.len - 1];
        self.len -= 1;
        value
    }
}

impl<T: Copy + Default, const N: usize> Default for InlineVec<T, N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Copy + Default, const N: usize> Deref for InlineVec<T, N> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        &self.items[..self.len]
    }
}

impl<T: Copy + Default, const N: usize> DerefMut for InlineVec<T, N> {
    fn deref_mut(&mut self) -> &mut [T] {
        &mut self.items[..self.len]
    }
}

impl<T: Copy + Default, const N: usize> Extend<T> for InlineVec<T, N> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        for item in iter {
            self.push(item);
        }
    }
}

impl<T: Copy + Default, const N: usize> IntoIterator for InlineVec<T, N> {
    type Item = T;
    type IntoIter = std::iter::Take<std::array::IntoIter<T, N>>;

    fn into_iter(self) -> Self::IntoIter {
        self.items.into_iter().take(self.len)
    }
}

impl<'a, T: Copy + Default, const N: usize> IntoIterator for &'a InlineVec<T, N> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_slice_access() {
        let mut v: InlineVec<u32, 4> = InlineVec::new();
        assert!(v.is_empty());
        v.push(1);
        v.push(2);
        assert_eq!(&v[..], &[1, 2]);
        assert_eq!(v.len(), 2);
        assert_eq!(v.capacity(), 4);
        v.clear();
        assert!(v.is_empty());
    }

    #[test]
    fn saturating_push_reports_overflow() {
        let mut v: InlineVec<u8, 2> = InlineVec::new();
        assert!(v.push_saturating(1));
        assert!(v.push_saturating(2));
        assert!(!v.push_saturating(3));
        assert_eq!(&v[..], &[1, 2]);
    }

    #[test]
    #[should_panic]
    fn overflow_panics() {
        let mut v: InlineVec<u8, 1> = InlineVec::new();
        v.push(1);
        v.push(2);
    }

    #[test]
    fn swap_remove_is_constant_time_and_unordered() {
        let mut v: InlineVec<u8, 4> = InlineVec::new();
        v.extend([1, 2, 3, 4]);
        assert_eq!(v.swap_remove(1), 2);
        assert_eq!(&v[..], &[1, 4, 3]);
        assert_eq!(v.swap_remove(2), 3);
        assert_eq!(&v[..], &[1, 4]);
    }

    #[test]
    fn iterates_and_extends() {
        let mut v: InlineVec<u64, 8> = InlineVec::new();
        v.extend([5, 6, 7]);
        let sum: u64 = v.iter().sum();
        assert_eq!(sum, 18);
        let max = v.iter().copied().max();
        assert_eq!(max, Some(7));
    }
}
