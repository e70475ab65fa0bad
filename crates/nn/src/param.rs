//! Trainable parameters: FP32 master values plus gradient and optimizer
//! state (the weight-update stage of Fig. 8 always runs in FP32).

use crate::tensor::Tensor;

/// One trainable parameter tensor with its gradient accumulator and
/// (lazily allocated) optimizer moments.
///
/// # The cached lowered weights
///
/// `value` carries lazily built, format-keyed lowered weights (the code
/// plane or pre-cast copy that `mx_nn::qflow`'s quantized matmuls and
/// compiled plans consume): the first product against this parameter
/// lowers them, subsequent forward passes reuse them. The cache is keyed
/// by [`Tensor::generation`], so *any* mutable access to the weight data —
/// an optimizer step, a direct `p.value.data_mut()` write, or replacing
/// `value` wholesale — invalidates it automatically, and the next product
/// re-lowers bit-identically to an uncached run. See `mx_nn::qflow` for the
/// full contract.
#[derive(Debug, Clone, PartialEq)]
pub struct Param {
    /// FP32 master value.
    pub value: Tensor,
    /// Gradient accumulated by the backward pass.
    pub grad: Tensor,
    /// First-moment buffer (SGD momentum / Adam m).
    pub moment1: Option<Tensor>,
    /// Second-moment buffer (Adam v).
    pub moment2: Option<Tensor>,
}

impl Param {
    /// Wraps a value tensor as a trainable parameter with a zero gradient.
    pub fn new(value: Tensor) -> Self {
        let grad = Tensor::zeros(value.shape());
        Param {
            value,
            grad,
            moment1: None,
            moment2: None,
        }
    }

    /// Clears the gradient accumulator.
    pub fn zero_grad(&mut self) {
        self.grad.data_mut().fill(0.0);
    }

    /// Adds `g` into the gradient accumulator.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn accumulate(&mut self, g: &Tensor) {
        assert_eq!(self.grad.shape(), g.shape(), "gradient shape mismatch");
        for (a, b) in self.grad.data_mut().iter_mut().zip(g.data().iter()) {
            *a += b;
        }
    }

    /// Number of scalar parameters.
    pub fn numel(&self) -> usize {
        self.value.numel()
    }

    /// Generation stamp of the weight tensor's cached code plane, if one
    /// has been built (see [`Tensor::cached_plane_generation`]). A value
    /// equal to `self.value.generation()` means the plane is current; a
    /// quantized matmul still re-packs if it asks for a different format
    /// pair than the one cached.
    pub fn weight_plane_generation(&self) -> Option<u64> {
        self.value.cached_plane_generation()
    }
}

/// Anything that owns parameters and can expose them to an optimizer.
pub trait HasParams {
    /// Calls `f` on every parameter exactly once.
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param));

    /// Zeroes every parameter gradient.
    fn zero_grads(&mut self) {
        self.visit_params(&mut |p| p.zero_grad());
    }

    /// Total scalar parameter count.
    fn param_count(&mut self) -> usize {
        let mut n = 0;
        self.visit_params(&mut |p| n += p.numel());
        n
    }

    /// Global L2 norm of all gradients.
    fn grad_norm(&mut self) -> f64 {
        let mut s = 0.0;
        self.visit_params(&mut |p| s += p.grad.sq_norm());
        s.sqrt()
    }

    /// Scales all gradients so their global norm is at most `max_norm`.
    fn clip_grad_norm(&mut self, max_norm: f64) {
        let norm = self.grad_norm();
        if norm > max_norm && norm > 0.0 {
            let s = (max_norm / norm) as f32;
            self.visit_params(&mut |p| {
                for g in p.grad.data_mut() {
                    *g *= s;
                }
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Two {
        a: Param,
        b: Param,
    }

    impl HasParams for Two {
        fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
            f(&mut self.a);
            f(&mut self.b);
        }
    }

    fn two() -> Two {
        Two {
            a: Param::new(Tensor::from_vec(vec![1.0, 2.0], &[2])),
            b: Param::new(Tensor::from_vec(vec![3.0; 4], &[2, 2])),
        }
    }

    #[test]
    fn accumulate_and_zero() {
        let mut p = Param::new(Tensor::zeros(&[2]));
        p.accumulate(&Tensor::from_vec(vec![1.0, 2.0], &[2]));
        p.accumulate(&Tensor::from_vec(vec![1.0, 2.0], &[2]));
        assert_eq!(p.grad.data(), &[2.0, 4.0]);
        p.zero_grad();
        assert_eq!(p.grad.data(), &[0.0, 0.0]);
    }

    #[test]
    fn param_count_and_visit() {
        let mut t = two();
        assert_eq!(t.param_count(), 6);
    }

    #[test]
    fn grad_norm_and_clipping() {
        let mut t = two();
        t.a.grad = Tensor::from_vec(vec![3.0, 4.0], &[2]);
        assert!((t.grad_norm() - 5.0).abs() < 1e-9);
        t.clip_grad_norm(1.0);
        assert!((t.grad_norm() - 1.0).abs() < 1e-6);
        // Clipping below the threshold is a no-op.
        t.clip_grad_norm(10.0);
        assert!((t.grad_norm() - 1.0).abs() < 1e-6);
    }
}
