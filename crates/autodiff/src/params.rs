//! Parameter storage shared across tapes.
//!
//! All learnable tensors of a model live in one [`ParamStore`], names and
//! values only: a fitted, decoded or served model is its parameters. The
//! tape reads them in place by [`ParamId`], and `backward` accumulates
//! gradients into a [`Gradients`] set, which exists only while something
//! trains — a [`crate::train::Lane`] allocates one aligned to its shard
//! and drops it with itself. Optimisers consume a set and reset it.
//!
//! A store can be cut into contiguous shards ([`ParamStore::split_off`],
//! [`ParamStore::append`]): the tensors move, every [`ParamId`] stays
//! valid in the shard that holds it, and sub-models that share no
//! parameter can be trained on separate threads, each with `&mut` to its
//! own shard and its own gradients.
//!
//! A constructor is the one description of a model's parameters: the
//! [`ParamStore::param`] calls that fill a fresh store claim, in order,
//! the parameters of one [`ParamStore::from_bytes`] decoded.

use std::collections::HashSet;
use std::sync::Arc;

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
    /// Position among the parameters of the store that registered it (a
    /// shard's own vectors start at its first id, not at zero).
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Why a decoded store is not the model its constructor describes
/// ([`ParamStore::finish`]), naming the parameter at fault.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LayoutError {
    /// Registered where the store holds another name or shape, or nothing.
    Mismatch(String),
    /// Stored, and claimed by no registration.
    Unclaimed(String),
}

impl std::fmt::Display for LayoutError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (name, what) = match self {
            LayoutError::Mismatch(name) => (name, "is not stored as the model registers it"),
            LayoutError::Unclaimed(name) => (name, "is not one the model registers"),
        };
        write!(f, "parameter {name:?} {what}")
    }
}

impl std::error::Error for LayoutError {}

/// Owns every learnable tensor of a model, by name; gradients live in a
/// [`Gradients`] set beside it while it trains.
///
/// A value sits behind an [`Arc`] so a tape can read it in place
/// ([`crate::Tape::param`]) instead of copying it; writes go through
/// [`Arc::make_mut`], which copies only a value something else still holds
/// (a clone of the store, or a tape that has not run backward yet).
#[derive(Clone, Debug, Default)]
pub struct ParamStore {
    names: Vec<String>,
    values: Vec<Arc<Tensor>>,
    /// Id of the first tensor held: non-zero only in a shard that
    /// [`ParamStore::split_off`] cut from the tail of another store.
    base: u32,
    /// `Some` from [`ParamStore::from_bytes`] until [`ParamStore::finish`]:
    /// registration claims what was decoded instead of appending — how
    /// many so far, or the first that was not there to claim.
    adoption: Option<Result<usize, LayoutError>>,
}

impl ParamStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// [`ParamStore::param`] for a tensor the caller already holds.
    pub fn add(&mut self, name: impl Into<String>, value: Tensor) -> ParamId {
        self.param(name.into(), value.shape(), |_, _| value)
    }

    /// Registers the parameter `name` of shape `(rows, cols)`, returning
    /// its handle — the verb layer constructors are written in. Names are
    /// used for diagnostics and serialization and must be unique. A fresh
    /// store runs `init` on the shape and appends the tensor. A store
    /// decoded from bytes runs and allocates nothing: it checks that its
    /// next unclaimed parameter has this name and shape and returns that
    /// one's id, or remembers the mismatch for [`ParamStore::finish`].
    pub fn param(
        &mut self,
        name: String,
        shape: (usize, usize),
        init: impl FnOnce(usize, usize) -> Tensor,
    ) -> ParamId {
        let Some(claimed) = &mut self.adoption else {
            assert!(!self.names.contains(&name), "duplicate parameter name {name:?}");
            self.names.push(name);
            self.values.push(Arc::new(init(shape.0, shape.1)));
            return ParamId(self.base + (self.values.len() - 1) as u32);
        };
        let &mut Ok(at) = claimed else { return ParamId(self.base) };
        *claimed = match self.names.get(at) {
            Some(stored) if *stored == name && self.values[at].shape() == shape => Ok(at + 1),
            _ => Err(LayoutError::Mismatch(name)),
        };
        ParamId(self.base + at as u32)
    }

    /// Parameters registered so far: all of a fresh store's, the claimed
    /// ones of a decoded store.
    pub fn registered(&self) -> usize {
        match &self.adoption {
            Some(Ok(claimed)) => *claimed,
            _ => self.values.len(),
        }
    }

    /// Closes the registration of a decoded store, from here on a store
    /// like any other; a fresh store has nothing to close.
    ///
    /// # Errors
    /// The first [`ParamStore::param`] the decoded parameters did not
    /// answer, else the first of them left unclaimed. Ids handed out
    /// before an `Err` address nothing.
    pub fn finish(&mut self) -> Result<(), LayoutError> {
        let claimed = self.adoption.take().unwrap_or(Ok(self.names.len()))?;
        self.names.get(claimed).map_or(Ok(()), |left| Err(LayoutError::Unclaimed(left.clone())))
    }

    /// Position of `id` in this store's vectors (see [`slot`]).
    #[inline]
    fn slot(&self, id: ParamId) -> usize {
        slot(self.base, id)
    }

    /// Cuts the store in two at position `at`: `self` keeps the first `at`
    /// tensors, the returned shard owns the rest. Tensors are moved, no
    /// scalar is copied, and the ids handed out by [`ParamStore::add`]
    /// keep addressing the same tensors — each in the shard that now holds
    /// it. [`ParamStore::append`] is the inverse.
    pub fn split_off(&mut self, at: usize) -> ParamStore {
        ParamStore {
            names: self.names.split_off(at),
            values: self.values.split_off(at),
            base: self.base + at as u32,
            adoption: None,
        }
    }

    /// Takes back the shard [`ParamStore::split_off`] returned.
    ///
    /// # Panics
    /// Panics when `tail` does not start where `self` ends.
    pub fn append(&mut self, mut tail: ParamStore) {
        assert_eq!(
            tail.base as usize,
            self.base as usize + self.len(),
            "append: the shard is not this store's tail"
        );
        self.names.append(&mut tail.names);
        self.values.append(&mut tail.values);
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
        self.values.iter().map(|v| v.len()).sum()
    }

    /// Parameter value.
    #[inline]
    pub fn value(&self, id: ParamId) -> &Tensor {
        &self.values[self.slot(id)]
    }

    /// Mutable parameter value (used by optimisers).
    #[inline]
    pub fn value_mut(&mut self, id: ParamId) -> &mut Tensor {
        let slot = self.slot(id);
        Arc::make_mut(&mut self.values[slot])
    }

    /// The value of `id` as the store holds it, for a tape to read in
    /// place.
    #[inline]
    pub(crate) fn shared_value(&self, id: ParamId) -> Arc<Tensor> {
        Arc::clone(&self.values[self.slot(id)])
    }

    /// Parameter name.
    pub fn name(&self, id: ParamId) -> &str {
        &self.names[self.slot(id)]
    }

    /// Iterate over all parameter ids.
    pub fn ids(&self) -> impl Iterator<Item = ParamId> {
        (self.base..self.base + self.values.len() as u32).map(ParamId)
    }

    /// Every value in id order, mutable (the optimiser's side of a step).
    pub(crate) fn values_mut(&mut self) -> impl Iterator<Item = &mut Tensor> {
        self.values.iter_mut().map(Arc::make_mut)
    }

    /// True when every parameter value is finite.
    pub fn all_finite(&self) -> bool {
        self.values.iter().all(|v| v.all_finite())
    }

    /// Serialises names, shapes and values into a compact
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
    /// for. The parameters come back unclaimed: build the model against
    /// the store ([`ParamStore::param`]) and [`ParamStore::finish`].
    ///
    /// # Errors
    /// [`CodecError::Truncated`] naming the field the input ended in (a
    /// shape whose values cannot fit in what is left included), and
    /// [`CodecError::Malformed`] for a name that is not UTF-8 or appears
    /// twice, or for trailing bytes.
    pub fn from_bytes(bytes: Bytes) -> Result<Self, CodecError> {
        Self::from_slice(&bytes)
    }

    /// [`ParamStore::from_bytes`] over borrowed bytes, copying nothing but
    /// the values.
    ///
    /// # Errors
    /// As [`ParamStore::from_bytes`].
    pub fn from_slice(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut r = Reader::new(bytes);
        let mut store = ParamStore { adoption: Some(Ok(0)), ..ParamStore::new() };
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
            store.values.push(Arc::new(Tensor::from_vec(rows, cols, data)));
        }
        r.finish()?;
        Ok(store)
    }

    /// True when `other` registers the same names with the same shapes in
    /// the same order — the condition under which [`ParamId`]s of one
    /// store address the other, and the precondition of
    /// [`ParamStore::copy_values_from`].
    pub fn same_layout(&self, other: &ParamStore) -> bool {
        self.base == other.base
            && self.names == other.names
            && self.values().map(Tensor::shape).eq(other.values().map(Tensor::shape))
    }

    /// Every parameter value in id order — what a checkpoint of this store
    /// has to keep (clone them); the names stay behind.
    pub fn values(&self) -> impl ExactSizeIterator<Item = &Tensor> {
        self.values.iter().map(|v| &**v)
    }

    /// Overwrites this store's values with `values`, one tensor per
    /// parameter in id order with matching shapes (a copy of
    /// [`ParamStore::values`] taken earlier, or another store's). Used to
    /// restore the best checkpoint after training.
    pub fn copy_values_from(&mut self, values: &[Tensor]) {
        assert_eq!(self.values.len(), values.len(), "param layout mismatch");
        for (dst, src) in self.values.iter_mut().map(Arc::make_mut).zip(values) {
            assert_eq!(dst.shape(), src.shape(), "param shape mismatch");
            dst.data_mut().copy_from_slice(src.data());
        }
    }
}

/// Position of `id` among the vectors of a shard starting at `base`. An
/// id below the base wraps to an index no vector has, so reaching into
/// the wrong shard is an out-of-bounds panic in every profile.
#[inline]
fn slot(base: u32, id: ParamId) -> usize {
    id.0.wrapping_sub(base) as usize
}

/// One gradient per parameter of a store shard — same base, same ids,
/// same shapes — that [`crate::Tape::backward`] adds into and an
/// optimiser step consumes. A training lane holds one for as long as it
/// trains; the store it was made for never does.
#[derive(Debug)]
pub struct Gradients {
    grads: Vec<Tensor>,
    base: u32,
}

impl Gradients {
    /// Zeroed gradients aligned to `store`.
    pub fn new(store: &ParamStore) -> Self {
        let grads = store.values().map(|v| Tensor::zeros(v.rows(), v.cols())).collect();
        Gradients { grads, base: store.base }
    }

    /// Number of gradients (one per parameter of the shard).
    pub(crate) fn len(&self) -> usize {
        self.grads.len()
    }

    /// The gradient accumulated for `id`.
    #[inline]
    pub fn get(&self, id: ParamId) -> &Tensor {
        &self.grads[slot(self.base, id)]
    }

    /// The gradient of `id`, for backward to add into.
    #[inline]
    pub(crate) fn get_mut(&mut self, id: ParamId) -> &mut Tensor {
        &mut self.grads[slot(self.base, id)]
    }

    /// Every gradient in id order, mutable (the optimiser's side of a step).
    pub(crate) fn iter_mut(&mut self) -> impl Iterator<Item = &mut Tensor> {
        self.grads.iter_mut()
    }

    /// Resets every gradient to zero.
    pub fn zero(&mut self) {
        for g in &mut self.grads {
            g.fill_zero();
        }
    }

    /// The factor that brings gradients of global L2 norm `norm` down to
    /// `max_norm`; `None` when they are within it already, or when
    /// `max_norm` is not positive (the clip is off).
    pub fn clip_factor(norm: f64, max_norm: f64) -> Option<f32> {
        (max_norm > 0.0 && norm > max_norm).then(|| (max_norm / norm) as f32)
    }

    /// Squared L2 norm of each gradient, in id order. Summed in that order
    /// and rooted they are the global norm; chaining the shards' sequences
    /// gives the norm of the whole model, bit for bit.
    pub fn sq_norms(&self) -> impl Iterator<Item = f64> + '_ {
        self.grads.iter().map(Tensor::sq_norm)
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

    /// A parameter as a constructor names it.
    type Named = (&'static str, (usize, usize));
    const SAMPLE: [Named; 2] = [("w", (2, 2)), ("b", (1, 3))];

    /// Registers `params` the way a layer's `new` does; `drawn` counts the
    /// initialisers that ran.
    fn register(s: &mut ParamStore, params: &[Named], drawn: &mut usize) -> Vec<ParamId> {
        let mut param = |&(name, shape): &Named| {
            s.param(name.to_string(), shape, |rows, cols| {
                *drawn += 1;
                Tensor::zeros(rows, cols)
            })
        };
        params.iter().map(&mut param).collect()
    }

    #[test]
    fn adoption_hands_back_the_ids_a_fresh_store_would() {
        let (mut fresh, mut drawn) = (ParamStore::new(), 0);
        let fresh_ids = register(&mut fresh, &SAMPLE, &mut drawn);
        assert_eq!((drawn, fresh.registered(), fresh.finish()), (2, 2, Ok(())));
        assert!(fresh.same_layout(&sample_store()));

        let blob = sample_store().to_bytes();
        let mut decoded = ParamStore::from_bytes(blob.clone()).unwrap();
        assert_eq!(decoded.registered(), 0, "decoded parameters start unclaimed");
        let ids = register(&mut decoded, &SAMPLE[..1], &mut drawn);
        assert_eq!(decoded.registered(), 1);
        let ids = [ids, register(&mut decoded, &SAMPLE[1..], &mut drawn)].concat();
        assert_eq!((ids, drawn), (fresh_ids, 2), "same ids, no initialiser run");
        assert_eq!(decoded.finish(), Ok(()));
        assert_eq!(decoded.to_bytes(), blob, "claiming changes no value");
        // Closed, it is a store like any other: registration appends again.
        let c = decoded.param("c".into(), (1, 1), Tensor::zeros);
        assert_eq!((c.index(), decoded.len(), decoded.finish()), (2, 3, Ok(())));
    }

    #[test]
    fn adoption_fails_typed_naming_the_offender() {
        let mismatch = |name: &str| LayoutError::Mismatch(name.into());
        let cases: [(&str, &[Named], LayoutError); 5] = [
            ("wrong name", &[SAMPLE[0], ("bias", (1, 3))], mismatch("bias")),
            ("wrong shape", &[SAMPLE[0], ("b", (3, 1))], mismatch("b")),
            ("too few stored", &[SAMPLE[0], SAMPLE[1], ("c", (1, 1))], mismatch("c")),
            ("left over", &SAMPLE[..1], LayoutError::Unclaimed("b".into())),
            // The first mismatch is the one reported, whatever follows it.
            ("first of two", &[("w", (4, 1)), ("x", (1, 3))], mismatch("w")),
        ];
        for (what, params, error) in cases {
            let mut decoded = ParamStore::from_bytes(sample_store().to_bytes()).unwrap();
            let mut drawn = 0;
            assert_eq!(register(&mut decoded, params, &mut drawn).len(), params.len(), "{what}");
            assert_eq!((decoded.finish(), drawn), (Err(error), 0), "{what}");
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
        let s = sample_store();
        let mut g = Gradients::new(&s);
        let id = s.ids().next().unwrap();
        g.get_mut(id).data_mut().copy_from_slice(&[3.0, 4.0, 0.0, 0.0]);
        let before = g.clip_norm(1.0);
        assert!((before - 5.0).abs() < 1e-6);
        assert!((g.norm() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn split_off_and_append_round_trip() {
        let mut s = sample_store();
        let c = s.add("c", Tensor::from_vec(1, 2, vec![7.0, -7.0]));
        let (whole, bytes) = (s.clone(), s.to_bytes());
        let ids: Vec<_> = s.ids().collect();

        let mut tail = s.split_off(1);
        assert_eq!((s.len(), tail.len()), (1, 2));
        assert_eq!(s.ids().chain(tail.ids()).collect::<Vec<_>>(), ids, "ids survive the cut");
        assert_eq!(tail.name(c), "c");
        assert_eq!(tail.value(c).data(), &[7.0, -7.0]);
        assert!(!tail.same_layout(&ParamStore::from_bytes(tail.to_bytes()).unwrap()), "base");
        // A shard is a store: it hands out the next id and can be cut again.
        let d = tail.add("d", Tensor::zeros(1, 1));
        assert_eq!(d.index(), 3);
        let dropped = tail.split_off(2);
        assert_eq!(dropped.name(d), "d");
        // Each shard's gradients follow its ids; chained, the whole's.
        let (head_grads, mut tail_grads) = (Gradients::new(&s), Gradients::new(&tail));
        tail_grads.get_mut(c).set(0, 1, 2.0);
        assert_eq!(
            head_grads.sq_norms().chain(tail_grads.sq_norms()).collect::<Vec<_>>(),
            [0.0, 0.0, 4.0]
        );

        s.append(tail);
        assert!(s.same_layout(&whole));
        assert_eq!(s.to_bytes(), bytes);
        assert_eq!(s.value(c), whole.value(c));
    }

    #[test]
    #[should_panic]
    fn an_id_of_the_other_shard_is_out_of_bounds() {
        let mut s = sample_store();
        let first = s.ids().next().unwrap();
        let tail = s.split_off(1);
        tail.value(first);
    }

    #[test]
    #[should_panic(expected = "not this store's tail")]
    fn append_refuses_a_shard_from_elsewhere() {
        let mut s = sample_store();
        let tail = s.split_off(1);
        s.add("x", Tensor::zeros(1, 1));
        s.append(tail);
    }

    #[test]
    fn zero_grads_resets() {
        let s = sample_store();
        let mut g = Gradients::new(&s);
        let id = s.ids().next().unwrap();
        g.get_mut(id).set(0, 0, 9.0);
        g.zero();
        assert_eq!(g.get(id).get(0, 0), 0.0);
    }

    #[test]
    #[should_panic]
    fn a_gradient_id_of_the_other_shard_is_out_of_bounds() {
        let mut s = sample_store();
        let first = s.ids().next().unwrap();
        let tail = s.split_off(1);
        Gradients::new(&tail).get(first);
    }

    #[test]
    #[should_panic]
    fn a_gradient_id_past_the_shard_is_out_of_bounds() {
        let mut s = sample_store();
        let last = s.ids().last().unwrap();
        s.split_off(1);
        Gradients::new(&s).get(last);
    }

    /// The global-norm helpers only the proofs call; the trainer folds
    /// [`Gradients::sq_norms`] itself and clips inside the Adam step.
    impl Gradients {
        /// Global L2 norm of all gradients.
        pub(crate) fn norm(&self) -> f64 {
            self.sq_norms().sum::<f64>().sqrt()
        }

        /// Rescales all gradients so their global L2 norm is at most
        /// `max_norm`. Returns the pre-clipping norm.
        pub(crate) fn clip_norm(&mut self, max_norm: f64) -> f64 {
            let norm = self.norm();
            if let Some(factor) = Self::clip_factor(norm, max_norm) {
                for x in self.iter_mut().flat_map(|g| g.data_mut()) {
                    *x *= factor;
                }
            }
            norm
        }
    }
}
