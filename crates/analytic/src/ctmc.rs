//! A dense steady-state solver for finite continuous-time Markov chains.

/// A finite CTMC described by its transition rates.
///
/// States are dense indices `0..n`. The steady-state distribution π
/// solves `π Q = 0` with `Σ π = 1`, where `Q` is the infinitesimal
/// generator (off-diagonal entries are the supplied rates, diagonals
/// make rows sum to zero). The solver does Gaussian elimination with
/// partial pivoting on the transposed system — entirely adequate for
/// the few-hundred-state protocol chains this crate builds.
///
/// # Examples
///
/// A two-state up/down machine with failure rate 1 and repair rate 3
/// is down a quarter of the time:
///
/// ```
/// use dynvote_analytic::Ctmc;
///
/// let mut chain = Ctmc::new(2);
/// chain.add_rate(0, 1, 1.0); // up → down
/// chain.add_rate(1, 0, 3.0); // down → up
/// let pi = chain.steady_state();
/// assert!((pi[1] - 0.25).abs() < 1e-12);
/// ```
#[derive(Clone, Debug)]
pub struct Ctmc {
    n: usize,
    /// Row-major off-diagonal rates; `rates[i * n + j]` is the rate
    /// from state `i` to state `j`.
    rates: Vec<f64>,
}

impl Ctmc {
    /// A chain with `n` states and no transitions.
    ///
    /// # Panics
    ///
    /// Panics when `n == 0`.
    #[must_use]
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "a chain needs at least one state");
        Ctmc {
            n,
            rates: vec![0.0; n * n],
        }
    }

    /// Number of states.
    #[must_use]
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` when the chain has no states (never, by construction).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Adds `rate` to the transition `from → to`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range states, self-loops, or negative rates.
    pub fn add_rate(&mut self, from: usize, to: usize, rate: f64) {
        assert!(from < self.n && to < self.n, "state out of range");
        assert_ne!(from, to, "self-loops have no meaning in a CTMC");
        assert!(rate >= 0.0, "rates are non-negative");
        self.rates[from * self.n + to] += rate;
    }

    /// The rate from `from` to `to`.
    #[must_use]
    pub fn rate(&self, from: usize, to: usize) -> f64 {
        self.rates[from * self.n + to]
    }

    /// Total outflow rate of a state.
    fn exit_rate(&self, state: usize) -> f64 {
        (0..self.n).map(|j| self.rates[state * self.n + j]).sum()
    }

    /// Mean first-passage time from `from` into the set `targets`
    /// (expected time to *first* reach any target state).
    ///
    /// Solves the standard linear system over the non-target states:
    /// `h_i = (1 + Σ_{j∉T} q_ij h_j / q_i) / 1` ⇔
    /// `Σ_j Q[i][j] h_j = -1` with `h_t = 0` for targets `t`. Used for
    /// the *reliability* metric: the mean time until a fresh replicated
    /// file first becomes unavailable.
    ///
    /// Returns `f64::INFINITY` when no target is reachable from `from`,
    /// and `0.0` when `from` is itself a target.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range states.
    #[must_use]
    pub fn mean_first_passage(&self, from: usize, targets: &[bool]) -> f64 {
        let n = self.n;
        assert!(from < n && targets.len() == n, "state out of range");
        if targets[from] {
            return 0.0;
        }
        // Restrict to non-target states.
        let keep: Vec<usize> = (0..n).filter(|&i| !targets[i]).collect();
        let pos: Vec<Option<usize>> = {
            let mut pos = vec![None; n];
            for (k, &i) in keep.iter().enumerate() {
                pos[i] = Some(k);
            }
            pos
        };
        let m = keep.len();
        // A h = -1 where A is the generator restricted to non-targets.
        let mut a = vec![0.0f64; m * m];
        let mut b = vec![-1.0f64; m];
        for (r, &i) in keep.iter().enumerate() {
            a[r * m + r] = -self.exit_rate(i);
            for (c, &j) in keep.iter().enumerate() {
                if r != c {
                    a[r * m + c] = self.rates[i * n + j];
                }
            }
        }
        // Gaussian elimination with partial pivoting.
        for col in 0..m {
            let pivot_row = (col..m)
                .max_by(|&r1, &r2| {
                    a[r1 * m + col]
                        .abs()
                        .partial_cmp(&a[r2 * m + col].abs())
                        .expect("rates are finite")
                })
                .expect("non-empty range");
            let pivot = a[pivot_row * m + col];
            if pivot.abs() <= 1e-14 {
                // The restricted chain is not absorbing from some state:
                // the targets are unreachable.
                return f64::INFINITY;
            }
            if pivot_row != col {
                for k in 0..m {
                    a.swap(col * m + k, pivot_row * m + k);
                }
                b.swap(col, pivot_row);
            }
            for row in (col + 1)..m {
                let factor = a[row * m + col] / a[col * m + col];
                if factor == 0.0 {
                    continue;
                }
                for k in col..m {
                    a[row * m + k] -= factor * a[col * m + k];
                }
                b[row] -= factor * b[col];
            }
        }
        let mut h = vec![0.0f64; m];
        for row in (0..m).rev() {
            let mut acc = b[row];
            for k in (row + 1)..m {
                acc -= a[row * m + k] * h[k];
            }
            h[row] = acc / a[row * m + row];
        }
        h[pos[from].expect("from is not a target")]
    }

    /// Solves for the steady-state distribution π.
    ///
    /// # Panics
    ///
    /// Panics when the linear system is singular beyond numerical
    /// tolerance — in practice, when the chain is not irreducible over
    /// the states that carry probability.
    #[must_use]
    pub fn steady_state(&self) -> Vec<f64> {
        let n = self.n;
        if n == 1 {
            return vec![1.0];
        }
        // Build A = Qᵀ with the last balance equation replaced by the
        // normalization Σ π = 1; solve A x = b with b = e_n.
        let mut a = vec![0.0f64; n * n];
        for i in 0..n {
            let diag = -self.exit_rate(i);
            for j in 0..n {
                // Row j of A is the balance equation of state j:
                // Σ_i π_i Q[i][j] = 0  →  A[j][i] = Q[i][j].
                let q_ij = if i == j { diag } else { self.rates[i * n + j] };
                a[j * n + i] = q_ij;
            }
        }
        let mut b = vec![0.0f64; n];
        for i in 0..n {
            a[(n - 1) * n + i] = 1.0;
        }
        b[n - 1] = 1.0;

        // Gaussian elimination with partial pivoting.
        for col in 0..n {
            let pivot_row = (col..n)
                .max_by(|&r1, &r2| {
                    a[r1 * n + col]
                        .abs()
                        .partial_cmp(&a[r2 * n + col].abs())
                        .expect("rates are finite")
                })
                .expect("non-empty range");
            let pivot = a[pivot_row * n + col];
            assert!(
                pivot.abs() > 1e-12,
                "singular balance system: chain not irreducible"
            );
            if pivot_row != col {
                for k in 0..n {
                    a.swap(col * n + k, pivot_row * n + k);
                }
                b.swap(col, pivot_row);
            }
            for row in (col + 1)..n {
                let factor = a[row * n + col] / a[col * n + col];
                if factor == 0.0 {
                    continue;
                }
                for k in col..n {
                    a[row * n + k] -= factor * a[col * n + k];
                }
                b[row] -= factor * b[col];
            }
        }
        // Back substitution.
        let mut x = vec![0.0f64; n];
        for row in (0..n).rev() {
            let mut acc = b[row];
            for k in (row + 1)..n {
                acc -= a[row * n + k] * x[k];
            }
            x[row] = acc / a[row * n + row];
        }
        // Clamp the tiny negative round-off that elimination can leave.
        for v in &mut x {
            if *v < 0.0 && *v > -1e-9 {
                *v = 0.0;
            }
        }
        debug_assert!(
            (x.iter().sum::<f64>() - 1.0).abs() < 1e-6,
            "steady state must normalize"
        );
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_state_machine() {
        let mut c = Ctmc::new(2);
        c.add_rate(0, 1, 2.0);
        c.add_rate(1, 0, 8.0);
        let pi = c.steady_state();
        assert!((pi[0] - 0.8).abs() < 1e-12);
        assert!((pi[1] - 0.2).abs() < 1e-12);
    }

    #[test]
    fn birth_death_chain_matches_closed_form() {
        // M/M/1/K-style chain: birth rate λ, death rate μ, K = 4.
        let (lambda, mu, k) = (1.0, 2.0, 4usize);
        let mut c = Ctmc::new(k + 1);
        for i in 0..k {
            c.add_rate(i, i + 1, lambda);
            c.add_rate(i + 1, i, mu);
        }
        let pi = c.steady_state();
        let rho: f64 = lambda / mu;
        let norm: f64 = (0..=k).map(|i| rho.powi(i as i32)).sum();
        for (i, p) in pi.iter().enumerate() {
            assert!((p - rho.powi(i as i32) / norm).abs() < 1e-10, "state {i}");
        }
    }

    #[test]
    fn independent_sites_factorize() {
        // Two independent up/down sites as one 4-state chain: the
        // steady state must be the product of the marginals.
        let (lf, lr) = (0.1, 1.0);
        let mut c = Ctmc::new(4); // bit 0 = site A up, bit 1 = site B up
        for s in 0..4u32 {
            for site in 0..2 {
                let bit = 1 << site;
                if s & bit != 0 {
                    c.add_rate(s as usize, (s ^ bit) as usize, lf);
                } else {
                    c.add_rate(s as usize, (s ^ bit) as usize, lr);
                }
            }
        }
        let pi = c.steady_state();
        let a = lr / (lf + lr); // P(site up)
        let expect = [(1.0 - a) * (1.0 - a), a * (1.0 - a), (1.0 - a) * a, a * a];
        for (i, p) in pi.iter().enumerate() {
            assert!((p - expect[i]).abs() < 1e-10, "state {i}");
        }
    }

    #[test]
    fn single_state_chain() {
        let c = Ctmc::new(1);
        assert_eq!(c.steady_state(), vec![1.0]);
    }

    #[test]
    fn accumulating_rates() {
        let mut c = Ctmc::new(2);
        c.add_rate(0, 1, 1.0);
        c.add_rate(0, 1, 1.0);
        assert_eq!(c.rate(0, 1), 2.0);
        assert_eq!(c.exit_rate(0), 2.0);
    }

    #[test]
    fn first_passage_single_transition() {
        // up → down at rate λ: mean first-passage time is 1/λ.
        let mut c = Ctmc::new(2);
        c.add_rate(0, 1, 0.25);
        c.add_rate(1, 0, 1.0);
        let h = c.mean_first_passage(0, &[false, true]);
        assert!((h - 4.0).abs() < 1e-12);
        assert_eq!(c.mean_first_passage(1, &[false, true]), 0.0);
    }

    #[test]
    fn first_passage_two_hops() {
        // 0 → 1 → 2, each at rate 1, no repair: h_0 = 2, h_1 = 1.
        let mut c = Ctmc::new(3);
        c.add_rate(0, 1, 1.0);
        c.add_rate(1, 2, 1.0);
        c.add_rate(2, 0, 1.0); // irrelevant for the passage
        let t = [false, false, true];
        assert!((c.mean_first_passage(0, &t) - 2.0).abs() < 1e-12);
        assert!((c.mean_first_passage(1, &t) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn first_passage_with_backtracking() {
        // Birth-death 0 ↔ 1 → 2: classic h_0 = (λ1 λ2 + μ1 λ2 + ... )
        // checked against the standard recursion h_0 = 1/λ + h_1 where
        // h_1 solves h_1 = 1/(λ+μ) + μ/(λ+μ) h_0.
        let (lam, mu) = (1.0, 3.0);
        let mut c = Ctmc::new(3);
        c.add_rate(0, 1, lam);
        c.add_rate(1, 0, mu);
        c.add_rate(1, 2, lam);
        let t = [false, false, true];
        // Solve the 2x2 recursion by hand:
        // h0 = 1/lam + h1;  h1 = 1/(lam+mu) + (mu/(lam+mu)) h0.
        let h1 = (1.0 / (lam + mu) + mu / (lam + mu) / lam) / (1.0 - mu / (lam + mu));
        let h0 = 1.0 / lam + h1;
        assert!((c.mean_first_passage(0, &t) - h0).abs() < 1e-10);
        assert!((c.mean_first_passage(1, &t) - h1).abs() < 1e-10);
    }

    #[test]
    fn first_passage_unreachable_is_infinite() {
        let mut c = Ctmc::new(3);
        c.add_rate(0, 1, 1.0);
        c.add_rate(1, 0, 1.0);
        // State 2 is disconnected.
        assert!(c.mean_first_passage(0, &[false, false, true]).is_infinite());
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn self_loop_rejected() {
        Ctmc::new(2).add_rate(1, 1, 1.0);
    }

    #[test]
    #[should_panic(expected = "singular")]
    fn disconnected_chain_rejected() {
        // Two absorbing components: no unique steady state.
        let mut c = Ctmc::new(4);
        c.add_rate(0, 1, 1.0);
        c.add_rate(1, 0, 1.0);
        c.add_rate(2, 3, 1.0);
        c.add_rate(3, 2, 1.0);
        let _ = c.steady_state();
    }
}
