//! Parameter storage shared across tapes.
//!
//! All learnable tensors of a model live in one [`ParamStore`]; the tape
//! references them by [`ParamId`] and `backward` accumulates gradients into
//! the store. Optimisers then consume `grads` and reset them.

use std::collections::HashSet;

use bytes::{BufMut, Bytes, BytesMut};
/// Why [`ParamStore::from_bytes`] refused a blob: the shared reader's
/// error, under the name this crate has always exported it by.
pub use tad_codec::ReadError as CodecError;
use tad_codec::Reader;

use crate::tensor::Tensor;

/// Dense handle to a parameter inside a [`ParamStore`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ParamId(pub(crate) u32);

impl ParamId {
    /// Index into the store's internal vectors.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Owns every learnable tensor of a model together with its gradient buffer.
#[derive(Clone, Debug, Default)]
pub struct ParamStore {
    names: Vec<String>,
    values: Vec<Tensor>,
    grads: Vec<Tensor>,
}

impl ParamStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a parameter, returning its handle. Names are used for
    /// diagnostics and serialization and must be unique.
    pub fn add(&mut self, name: impl Into<String>, value: Tensor) -> ParamId {
        let name = name.into();
        assert!(!self.names.iter().any(|n| n == &name), "duplicate parameter name {name:?}");
        let (r, c) = value.shape();
        self.names.push(name);
        self.values.push(value);
        self.grads.push(Tensor::zeros(r, c));
        ParamId((self.values.len() - 1) as u32)
    }

    /// Number of registered parameters (tensors, not scalars).
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when no parameters are registered.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Total number of scalar parameters.
    pub fn num_scalars(&self) -> usize {
        self.values.iter().map(Tensor::len).sum()
    }

    /// Parameter value.
    #[inline]
    pub fn value(&self, id: ParamId) -> &Tensor {
        &self.values[id.index()]
    }

    /// Mutable parameter value (used by optimisers).
    #[inline]
    pub fn value_mut(&mut self, id: ParamId) -> &mut Tensor {
        &mut self.values[id.index()]
    }

    /// Accumulated gradient.
    #[inline]
    pub fn grad(&self, id: ParamId) -> &Tensor {
        &self.grads[id.index()]
    }

    /// Mutable gradient buffer.
    #[inline]
    pub fn grad_mut(&mut self, id: ParamId) -> &mut Tensor {
        &mut self.grads[id.index()]
    }

    /// Split borrow for optimisers: the mutable value and the (shared)
    /// gradient of `id` at once, so update loops need no gradient clone.
    #[inline]
    pub fn value_grad_mut(&mut self, id: ParamId) -> (&mut Tensor, &Tensor) {
        (&mut self.values[id.index()], &self.grads[id.index()])
    }

    /// Split borrow for scatter-style backward rules: the (shared) value
    /// and the mutable gradient of `id` at once.
    #[inline]
    pub fn value_and_grad_mut(&mut self, id: ParamId) -> (&Tensor, &mut Tensor) {
        (&self.values[id.index()], &mut self.grads[id.index()])
    }

    /// Parameter name.
    pub fn name(&self, id: ParamId) -> &str {
        &self.names[id.index()]
    }

    /// Iterate over all parameter ids.
    pub fn ids(&self) -> impl Iterator<Item = ParamId> {
        (0..self.values.len() as u32).map(ParamId)
    }

    /// Resets every gradient buffer to zero.
    pub fn zero_grads(&mut self) {
        for g in &mut self.grads {
            g.fill_zero();
        }
    }

    /// Global L2 norm of all gradients.
    pub fn grad_norm(&self) -> f64 {
        self.grads.iter().map(Tensor::sq_norm).sum::<f64>().sqrt()
    }

    /// Rescales all gradients so their global L2 norm is at most `max_norm`.
    /// Returns the pre-clipping norm.
    pub fn clip_grad_norm(&mut self, max_norm: f64) -> f64 {
        let norm = self.grad_norm();
        if norm > max_norm && norm > 0.0 {
            let scale = (max_norm / norm) as f32;
            for g in &mut self.grads {
                for x in g.data_mut() {
                    *x *= scale;
                }
            }
        }
        norm
    }

    /// True when every parameter value is finite.
    pub fn all_finite(&self) -> bool {
        self.values.iter().all(Tensor::all_finite)
    }

    /// Serialises names, shapes and values (not gradients) into a compact
    /// little-endian binary blob. Format:
    /// `u32 count, then per param: u32 name_len, name bytes, u32 rows,
    /// u32 cols, rows*cols f32`.
    pub fn to_bytes(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(16 + self.num_scalars() * 4);
        buf.put_u32_le(self.values.len() as u32);
        for (name, value) in self.names.iter().zip(self.values.iter()) {
            buf.put_u32_le(name.len() as u32);
            buf.put_slice(name.as_bytes());
            buf.put_u32_le(value.rows() as u32);
            buf.put_u32_le(value.cols() as u32);
            for &x in value.data() {
                buf.put_f32_le(x);
            }
        }
        buf.freeze()
    }

    /// Deserialises a store written by [`ParamStore::to_bytes`]. Total:
    /// every read goes through the checked [`Reader`], so no input can
    /// panic it or make it reserve more than the input's own length pays
    /// for.
    ///
    /// # Errors
    /// [`CodecError::Truncated`] naming the field the input ended in (a
    /// shape whose values cannot fit in what is left included), and
    /// [`CodecError::Malformed`] for a name that is not UTF-8 or appears
    /// twice, or for trailing bytes.
    pub fn from_bytes(bytes: Bytes) -> Result<Self, CodecError> {
        let mut r = Reader::new(&bytes);
        let mut store = ParamStore::new();
        let mut seen = HashSet::new();
        // Smallest record: empty name, 0 x 0 shape.
        for _ in 0..r.count(4 + 4 + 4, "param count")? {
            let name = std::str::from_utf8(r.blob("name")?)
                .map_err(|_| CodecError::Malformed("parameter name is not UTF-8"))?;
            if !seen.insert(name) {
                return Err(CodecError::Malformed("duplicate parameter name"));
            }
            let (rows, cols) = (r.u32("shape")? as usize, r.u32("shape")? as usize);
            // `rows` rows of `4·cols` bytes fit in what is left, so
            // `rows·cols` cannot overflow.
            r.bound(rows, cols.saturating_mul(4), "values")?;
            let mut data = Vec::with_capacity(rows * cols);
            for _ in 0..rows * cols {
                data.push(r.f32("values")?);
            }
            store.names.push(name.to_owned());
            store.values.push(Tensor::from_vec(rows, cols, data));
            store.grads.push(Tensor::zeros(rows, cols));
        }
        r.finish()?;
        Ok(store)
    }

    /// True when `other` registers the same names with the same shapes in
    /// the same order — the condition under which [`ParamId`]s of one
    /// store address the other, and the precondition of
    /// [`ParamStore::copy_values_from`].
    pub fn same_layout(&self, other: &ParamStore) -> bool {
        self.names == other.names
            && self.values.iter().map(Tensor::shape).eq(other.values.iter().map(Tensor::shape))
    }

    /// Overwrites this store's values from another store with identical
    /// layout (same names, same order, same shapes). Used to restore the
    /// best checkpoint after training.
    pub fn copy_values_from(&mut self, other: &ParamStore) {
        assert_eq!(self.names, other.names, "param layout mismatch");
        for (dst, src) in self.values.iter_mut().zip(other.values.iter()) {
            assert_eq!(dst.shape(), src.shape(), "param shape mismatch");
            dst.data_mut().copy_from_slice(src.data());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_store() -> ParamStore {
        let mut s = ParamStore::new();
        s.add("w", Tensor::from_vec(2, 2, vec![1.0, -2.0, 3.5, 0.25]));
        s.add("b", Tensor::from_vec(1, 3, vec![0.5, 0.0, -0.5]));
        s
    }

    #[test]
    fn add_and_lookup() {
        let s = sample_store();
        assert_eq!(s.len(), 2);
        assert_eq!(s.num_scalars(), 7);
        let ids: Vec<_> = s.ids().collect();
        assert_eq!(s.name(ids[0]), "w");
        assert_eq!(s.value(ids[1]).shape(), (1, 3));
    }

    #[test]
    #[should_panic(expected = "duplicate parameter name")]
    fn duplicate_name_panics() {
        let mut s = sample_store();
        s.add("w", Tensor::zeros(1, 1));
    }

    #[test]
    fn roundtrip_codec() {
        let s = sample_store();
        let restored = ParamStore::from_bytes(s.to_bytes()).unwrap();
        assert_eq!(restored.len(), s.len());
        for id in s.ids() {
            assert_eq!(restored.name(id), s.name(id));
            assert_eq!(restored.value(id), s.value(id));
        }
    }

    #[test]
    fn truncated_codec_errors() {
        let s = sample_store();
        let bytes = s.to_bytes();
        let cut = bytes.slice(0..bytes.len() - 3);
        assert!(matches!(ParamStore::from_bytes(cut), Err(CodecError::Truncated(_))));
    }

    #[test]
    fn clip_grad_norm_scales_down() {
        let mut s = sample_store();
        let id = s.ids().next().unwrap();
        s.grad_mut(id).data_mut().copy_from_slice(&[3.0, 4.0, 0.0, 0.0]);
        let before = s.clip_grad_norm(1.0);
        assert!((before - 5.0).abs() < 1e-6);
        assert!((s.grad_norm() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn zero_grads_resets() {
        let mut s = sample_store();
        let id = s.ids().next().unwrap();
        s.grad_mut(id).set(0, 0, 9.0);
        s.zero_grads();
        assert_eq!(s.grad(id).get(0, 0), 0.0);
    }
}
