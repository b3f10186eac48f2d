//! [`DenseMap`]: the collision-free per-thread table of the move kernels.

/// Collision-free map over a dense key range (Sahu's per-thread table):
/// a full-size slot array plus the entries in first-touch order, cleared
/// by walking the entries. A key's presence is exact — an entry whose
/// value sums to zero is still an entry.
///
/// First touch is branch-free: [`DenseMap::entry`] always writes a fresh
/// entry past the live ones and keeps it only if the key was absent, so
/// a gather whose keys are new about half the time does not mispredict.
#[derive(Debug, Default)]
pub struct DenseMap<V> {
    /// `slot[k]`: 1 + position of key `k` in `entries`, 0 while absent.
    slot: Vec<u32>,
    /// Live entries `..len`, then spare cells `entry` may scribble on.
    entries: Vec<(u32, V)>,
    len: usize,
}

impl<V: Copy + Default> DenseMap<V> {
    /// Accept keys `0..keys`. The slot array only grows (the new tail
    /// zero-filled), so calling this before every use costs nothing once
    /// the key range has settled.
    pub fn cover(&mut self, keys: usize) {
        if self.slot.len() < keys {
            self.slot.resize(keys, 0);
        }
    }

    /// The value of `k`, inserted as `V::default()` on first touch.
    #[inline]
    pub fn entry(&mut self, k: u32) -> &mut V {
        if self.len == self.entries.len() {
            self.grow();
        }
        self.entries[self.len] = (k, V::default());
        let slot = &mut self.slot[k as usize];
        let fresh = u32::from(*slot == 0);
        self.len += fresh as usize;
        // At most one entry per key and keys are `u32`, so `len` fits.
        *slot |= self.len as u32 & fresh.wrapping_neg();
        &mut self.entries[*slot as usize - 1].1
    }

    /// Double the buffer, as `Vec::push` would.
    #[cold]
    #[inline(never)]
    fn grow(&mut self) {
        let cells = (2 * self.entries.len()).max(4);
        self.entries.resize(cells, (0, V::default()));
    }

    #[inline]
    pub fn get(&self, k: u32) -> Option<V> {
        match self.slot[k as usize] {
            0 => None,
            s => Some(self.entries[s as usize - 1].1),
        }
    }

    /// `(key, value)` pairs in first-touch order.
    #[inline]
    pub fn entries(&self) -> &[(u32, V)] {
        &self.entries[..self.len]
    }

    pub fn clear(&mut self) {
        for &(k, _) in &self.entries[..self.len] {
            self.slot[k as usize] = 0;
        }
        self.len = 0;
    }

    /// No entry and every slot zero (a full scan — for `debug_assert!`).
    pub fn is_clear(&self) -> bool {
        self.len == 0 && self.slot.iter().all(|&s| s == 0)
    }

    /// Bytes held, from capacities.
    pub fn approx_bytes(&self) -> u64 {
        let entry = std::mem::size_of::<(u32, V)>();
        (self.slot.capacity() * 4 + self.entries.capacity() * entry) as u64
    }
}
