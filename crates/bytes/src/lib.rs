//! Hermetic stand-in for the `bytes` crate.
//!
//! The build environment has no network and no registry cache, so the
//! workspace path-overrides `bytes` to this crate. [`Bytes`] is the only
//! export: an immutable, cheaply-cloneable byte buffer backed by an
//! `Arc<Vec<u8>>` plus an `(offset, len)` view, which is all the page pool,
//! `FsCore` block store, and tests need. [`Bytes::new`] has no backing and
//! allocates nothing.
//!
//! Which constructors copy:
//!
//! * `From<Vec<u8>>` and `From<String>` **adopt** the caller's heap
//!   allocation, as upstream `bytes` does: no copy, no reallocation. A
//!   buffer built once at its final size stays the only copy.
//! * [`Bytes::copy_from_slice`], `From<&[u8]>` and [`Bytes::from_static`]
//!   copy their input into a new, independent allocation.
//! * `clone()` and [`Bytes::slice`] are O(1) and share the backing
//!   allocation; [`Bytes::to_vec`] copies the view out.

use std::fmt;
use std::ops::{Deref, Range, RangeFrom, RangeFull, RangeTo};
use std::sync::Arc;

/// An immutable, reference-counted byte buffer; `clone` and `slice` share
/// the same backing allocation.
#[derive(Clone, Default)]
pub struct Bytes {
    /// `None` from `new()` and `default()`, which allocate nothing.
    data: Option<Arc<Vec<u8>>>,
    offset: usize,
    len: usize,
}

impl Bytes {
    /// An empty buffer (no allocation).
    pub fn new() -> Self {
        Bytes::default()
    }

    /// Wrap a static byte slice (copies once into shared storage; the
    /// upstream zero-copy optimization is irrelevant at simulation scale).
    pub fn from_static(bytes: &'static [u8]) -> Self {
        Bytes::from(bytes.to_vec())
    }

    /// Copy a slice into a new shared buffer.
    pub fn copy_from_slice(bytes: &[u8]) -> Self {
        Bytes::from(bytes.to_vec())
    }

    /// Length of the view in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// O(1) sub-view sharing the same backing storage.
    pub fn slice(&self, range: impl SliceRange) -> Self {
        let (start, end) = range.resolve(self.len);
        assert!(
            start <= end && end <= self.len,
            "slice {start}..{end} out of bounds for Bytes of len {}",
            self.len
        );
        Bytes {
            data: self.data.clone(),
            offset: self.offset + start,
            len: end - start,
        }
    }

    /// Copy the view out into an owned `Vec`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_ref().to_vec()
    }
}

/// Range forms accepted by [`Bytes::slice`].
pub trait SliceRange {
    /// Resolve to concrete `(start, end)` against a buffer of length `len`.
    fn resolve(self, len: usize) -> (usize, usize);
}

impl SliceRange for Range<usize> {
    fn resolve(self, _len: usize) -> (usize, usize) {
        (self.start, self.end)
    }
}

impl SliceRange for RangeTo<usize> {
    fn resolve(self, _len: usize) -> (usize, usize) {
        (0, self.end)
    }
}

impl SliceRange for RangeFrom<usize> {
    fn resolve(self, len: usize) -> (usize, usize) {
        (self.start, len)
    }
}

impl SliceRange for RangeFull {
    fn resolve(self, len: usize) -> (usize, usize) {
        (0, len)
    }
}

impl Deref for Bytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        match &self.data {
            Some(data) => &data[self.offset..self.offset + self.len],
            None => &[],
        }
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl From<Vec<u8>> for Bytes {
    /// Adopt `v`'s heap allocation (spare capacity included); nothing is
    /// copied.
    fn from(v: Vec<u8>) -> Self {
        let len = v.len();
        Bytes {
            data: Some(Arc::new(v)),
            offset: 0,
            len,
        }
    }
}

impl From<&[u8]> for Bytes {
    fn from(v: &[u8]) -> Self {
        Bytes::copy_from_slice(v)
    }
}

impl From<String> for Bytes {
    /// Adopt the string's heap allocation, as `From<Vec<u8>>` does.
    fn from(s: String) -> Self {
        Bytes::from(s.into_bytes())
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_ref() == other.as_ref()
    }
}

impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_ref() == other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_ref() == other.as_slice()
    }
}

impl std::hash::Hash for Bytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_ref().hash(state);
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Bytes(len={})", self.len)
    }
}

#[cfg(test)]
mod tests {
    use super::Bytes;

    #[test]
    fn roundtrip_and_eq() {
        let b = Bytes::from(vec![1u8, 2, 3, 4]);
        assert_eq!(b.len(), 4);
        assert_eq!(b.to_vec(), vec![1, 2, 3, 4]);
        assert_eq!(b, Bytes::from(vec![1u8, 2, 3, 4]));
    }

    #[test]
    fn slice_shares_storage() {
        let v: Vec<u8> = (0u8..=255).collect();
        let base = v.as_ptr();
        let b = Bytes::from(v);
        let s = b.slice(10..20);
        assert_eq!(s.len(), 10);
        assert_eq!(s[0], 10);
        assert_eq!(
            s.as_ptr(),
            base.wrapping_add(10),
            "a slice must view the adopted buffer"
        );
        let s2 = s.slice(5..);
        assert_eq!(s2[0], 15);
        assert_eq!(s2.clone().as_ptr(), base.wrapping_add(15));
    }

    #[test]
    fn from_vec_adopts_the_allocation() {
        let v = vec![7u8; 4096];
        let ptr = v.as_ptr();
        let b = Bytes::from(v);
        assert_eq!(
            b.as_ptr(),
            ptr,
            "From<Vec<u8>> must keep the vector's heap buffer"
        );
        assert_eq!(&b[..], &[7u8; 4096][..]);
    }

    #[test]
    fn from_string_adopts_the_allocation() {
        let s = String::from("global file systems for grid computing");
        let ptr = s.as_ptr();
        let b = Bytes::from(s);
        assert_eq!(
            b.as_ptr(),
            ptr,
            "From<String> must keep the string's heap buffer"
        );
        assert_eq!(&b[..], b"global file systems for grid computing");
    }

    #[test]
    fn copying_constructors_return_independent_buffers() {
        let src = vec![1u8, 2, 3, 4];
        let a = Bytes::copy_from_slice(&src);
        let b = Bytes::from(&src[..]);
        assert_ne!(a.as_ptr(), src.as_ptr());
        assert_ne!(b.as_ptr(), src.as_ptr());
        assert_ne!(a.as_ptr(), b.as_ptr());
        assert_eq!(a, src);
        assert_eq!(b, src);
    }

    #[test]
    fn empty_is_cheap() {
        let b = Bytes::new();
        assert!(b.is_empty());
        assert_eq!(b.as_ref(), &[] as &[u8]);
    }

    #[test]
    fn static_and_slice_forms() {
        let b = Bytes::from_static(b"hello world");
        assert_eq!(&b.slice(..5)[..], b"hello");
        assert_eq!(&b.slice(6..)[..], b"world");
        assert_eq!(&b.slice(..)[..], b"hello world");
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn oob_slice_panics() {
        Bytes::from(vec![0u8; 4]).slice(2..9);
    }
}
