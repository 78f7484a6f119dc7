//! A short sequence stored inline, spilling to the heap only when long.
//!
//! Node activations hold their input tokens and hand over their outputs in
//! an [`InlineVec`]: nearly every op has at most four inputs and two
//! outputs, so the activation path allocates no buffer for them.

/// Up to `N` items inline, any number beyond that in a `Vec`.
///
/// Slots are `Option`s so the same type serves two uses: a fixed-length
/// row of input slots filled out of order ([`InlineVec::with_empty_slots`],
/// [`InlineVec::slots_mut`]) and an output list built by
/// [`InlineVec::push`]. Iterating by value yields the filled slots in order.
#[derive(Debug)]
pub(crate) struct InlineVec<T, const N: usize> {
    len: usize,
    repr: Repr<T, N>,
}

#[derive(Debug)]
enum Repr<T, const N: usize> {
    Inline([Option<T>; N]),
    Heap(Vec<Option<T>>),
}

impl<T, const N: usize> Default for InlineVec<T, N> {
    fn default() -> Self {
        InlineVec { len: 0, repr: Repr::Inline(std::array::from_fn(|_| None)) }
    }
}

impl<T, const N: usize> InlineVec<T, N> {
    /// An empty sequence.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// `len` empty slots, to be filled through [`InlineVec::slots_mut`].
    pub(crate) fn with_empty_slots(len: usize) -> Self {
        if len <= N {
            InlineVec { len, repr: Repr::Inline(std::array::from_fn(|_| None)) }
        } else {
            InlineVec { len, repr: Repr::Heap((0..len).map(|_| None).collect()) }
        }
    }

    /// A one-item sequence.
    pub(crate) fn one(item: T) -> Self {
        let mut v = Self::new();
        v.push(item);
        v
    }

    /// Appends `item`, moving to the heap once the inline slots are full.
    pub(crate) fn push(&mut self, item: T) {
        match &mut self.repr {
            Repr::Inline(slots) if self.len < N => slots[self.len] = Some(item),
            Repr::Inline(slots) => {
                let mut heap: Vec<Option<T>> = Vec::with_capacity(N * 2);
                heap.extend(slots.iter_mut().map(Option::take));
                heap.push(Some(item));
                self.repr = Repr::Heap(heap);
            }
            Repr::Heap(heap) => heap.push(Some(item)),
        }
        self.len += 1;
    }

    /// Number of slots (filled or not).
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The slots, in order.
    pub(crate) fn slots_mut(&mut self) -> &mut [Option<T>] {
        match &mut self.repr {
            Repr::Inline(slots) => &mut slots[..self.len],
            Repr::Heap(heap) => heap.as_mut_slice(),
        }
    }

    /// Moves the contents out, leaving an empty sequence behind.
    pub(crate) fn take(&mut self) -> Self {
        std::mem::take(self)
    }
}

impl<T, const N: usize> IntoIterator for InlineVec<T, N> {
    type Item = T;
    type IntoIter = IntoIter<T, N>;

    fn into_iter(self) -> IntoIter<T, N> {
        match self.repr {
            Repr::Inline(slots) => IntoIter::Inline(slots.into_iter().take(self.len)),
            Repr::Heap(heap) => IntoIter::Heap(heap.into_iter()),
        }
    }
}

/// By-value iterator over the filled slots of an [`InlineVec`].
pub(crate) enum IntoIter<T, const N: usize> {
    Inline(std::iter::Take<std::array::IntoIter<Option<T>, N>>),
    Heap(std::vec::IntoIter<Option<T>>),
}

impl<T, const N: usize> Iterator for IntoIter<T, N> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        loop {
            let slot = match self {
                IntoIter::Inline(it) => it.next()?,
                IntoIter::Heap(it) => it.next()?,
            };
            if slot.is_some() {
                return slot;
            }
        }
    }
}

impl<T, const N: usize> FromIterator<T> for InlineVec<T, N> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut v = Self::new();
        for item in iter {
            v.push(item);
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_spills_past_inline_capacity_in_order() {
        let mut v: InlineVec<u32, 2> = InlineVec::new();
        for i in 0..5 {
            v.push(i);
        }
        assert_eq!(v.len(), 5);
        assert_eq!(v.into_iter().collect::<Vec<_>>(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn slots_fill_out_of_order_and_skip_holes() {
        for len in [3, 6] {
            let mut v: InlineVec<String, 4> = InlineVec::with_empty_slots(len);
            v.slots_mut()[2] = Some("c".into());
            v.slots_mut()[0] = Some("a".into());
            let taken = v.take();
            assert_eq!(v.len(), 0, "take leaves an empty sequence");
            assert_eq!(taken.len(), len);
            assert_eq!(taken.into_iter().collect::<Vec<_>>(), vec!["a", "c"]);
        }
    }
}
