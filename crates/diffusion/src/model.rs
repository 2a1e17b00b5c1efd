use crate::{Cascade, DiffusionError, SeedSet};
use isomit_graph::SignedDigraph;
use rand::RngCore;

/// A discrete-step information-diffusion model over a weighted signed
/// diffusion network.
///
/// Implementations simulate forward from a seed set and return the full
/// [`Cascade`] record. The trait is object-safe so harnesses can run a
/// heterogeneous collection of models:
///
/// ```
/// use isomit_diffusion::{DiffusionModel, IndependentCascade, Mfc};
///
/// # fn main() -> Result<(), isomit_diffusion::DiffusionError> {
/// let models: Vec<Box<dyn DiffusionModel>> = vec![
///     Box::new(Mfc::new(3.0)?),
///     Box::new(IndependentCascade::new()),
/// ];
/// assert_eq!(models.len(), 2);
/// # Ok(())
/// # }
/// ```
pub trait DiffusionModel: std::fmt::Debug {
    /// Human-readable model name (used in experiment reports).
    fn name(&self) -> &'static str;

    /// Runs one simulation of the model on `graph` starting from `seeds`.
    ///
    /// `graph` is interpreted as a *diffusion* network: an edge `(u, v)`
    /// means influence flows from `u` to `v` (callers reverse social
    /// networks first, per Definition 2 of the paper). Any `&mut rng`
    /// implementing [`rand::RngCore`] can be passed; it coerces to the
    /// trait object.
    ///
    /// # Errors
    ///
    /// Returns [`DiffusionError::SeedOutOfBounds`] if any seed is out of
    /// bounds for `graph` (every implementation validates via
    /// [`SeedSet::validate_against`] before touching the graph).
    fn simulate(
        &self,
        graph: &SignedDigraph,
        seeds: &SeedSet,
        rng: &mut dyn RngCore,
    ) -> Result<Cascade, DiffusionError>;
}

/// Draws a uniform `f64` in `[0, 1)` from any RNG, including through
/// `&mut dyn RngCore` (53-bit mantissa method).
#[inline]
pub(crate) fn gen_unit(rng: &mut (impl RngCore + ?Sized)) -> f64 {
    (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn gen_unit_stays_in_unit_interval() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..1000 {
            let x = gen_unit(&mut rng);
            assert!((0.0..1.0).contains(&x));
        }
    }
}
