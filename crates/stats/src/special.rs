//! Special functions: log-gamma, regularized incomplete gamma and beta.
//!
//! These provide the tail probabilities behind every p-value in the crate:
//! chi-square survival is `Q(k/2, x/2)` and the Student-t CDF reduces to the
//! regularized incomplete beta function.

/// Natural log of the gamma function (Lanczos approximation, g=7, n=9).
///
/// Accurate to ~1e-13 for positive arguments.
fn ln_gamma(x: f64) -> f64 {
    const COEFFS: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula.
        std::f64::consts::PI.ln() - (std::f64::consts::PI * x).sin().ln() - ln_gamma(1.0 - x)
    } else {
        let x = x - 1.0;
        let mut a = COEFFS[0];
        let t = x + 7.5;
        for (i, &c) in COEFFS.iter().enumerate().skip(1) {
            a += c / (x + i as f64);
        }
        0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
    }
}

/// Regularized upper incomplete gamma `Q(a, x)`.
fn gamma_q(a: f64, x: f64) -> f64 {
    if x <= 0.0 || a <= 0.0 {
        return if x <= 0.0 { 1.0 } else { 0.0 };
    }
    if x < a + 1.0 {
        1.0 - gamma_p_series(a, x)
    } else {
        gamma_q_cf(a, x)
    }
}

/// Series expansion for P(a, x), valid for x < a+1.
fn gamma_p_series(a: f64, x: f64) -> f64 {
    let mut sum = 1.0 / a;
    let mut term = sum;
    let mut n = a;
    for _ in 0..500 {
        n += 1.0;
        term *= x / n;
        sum += term;
        if term.abs() < sum.abs() * 1e-15 {
            break;
        }
    }
    (sum.ln() + a * x.ln() - x - ln_gamma(a)).exp()
}

/// Continued fraction for Q(a, x), valid for x >= a+1 (Lentz's method).
fn gamma_q_cf(a: f64, x: f64) -> f64 {
    let tiny = 1e-300;
    let mut b = x + 1.0 - a;
    let mut c = 1.0 / tiny;
    let mut d = 1.0 / b;
    let mut h = d;
    for i in 1..500 {
        let an = -(i as f64) * (i as f64 - a);
        b += 2.0;
        d = an * d + b;
        if d.abs() < tiny {
            d = tiny;
        }
        c = b + an / c;
        if c.abs() < tiny {
            c = tiny;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < 1e-15 {
            break;
        }
    }
    (a * x.ln() - x - ln_gamma(a)).exp() * h
}

/// Regularized incomplete beta function `I_x(a, b)`.
fn beta_inc(a: f64, b: f64, x: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    let ln_front = ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln();
    let front = ln_front.exp();
    // Use the continued fraction in its region of fast convergence.
    if x < (a + 1.0) / (a + b + 2.0) {
        front * beta_cf(a, b, x) / a
    } else {
        1.0 - front * beta_cf(b, a, 1.0 - x) / b
    }
}

/// Continued fraction for the incomplete beta (Lentz's method).
fn beta_cf(a: f64, b: f64, x: f64) -> f64 {
    let tiny = 1e-300;
    let qab = a + b;
    let qap = a + 1.0;
    let qam = a - 1.0;
    let mut c = 1.0;
    let mut d = 1.0 - qab * x / qap;
    if d.abs() < tiny {
        d = tiny;
    }
    d = 1.0 / d;
    let mut h = d;
    for m in 1..300 {
        let m = m as f64;
        let m2 = 2.0 * m;
        // Even step.
        let aa = m * (b - m) * x / ((qam + m2) * (a + m2));
        d = 1.0 + aa * d;
        if d.abs() < tiny {
            d = tiny;
        }
        c = 1.0 + aa / c;
        if c.abs() < tiny {
            c = tiny;
        }
        d = 1.0 / d;
        h *= d * c;
        // Odd step.
        let aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
        d = 1.0 + aa * d;
        if d.abs() < tiny {
            d = tiny;
        }
        c = 1.0 + aa / c;
        if c.abs() < tiny {
            c = tiny;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < 1e-14 {
            break;
        }
    }
    h
}

/// Student-t distribution two-sided tail probability for statistic `t` with
/// `df` degrees of freedom: `P(|T| >= |t|)`.
pub fn student_t_two_sided(t: f64, df: f64) -> f64 {
    if !t.is_finite() || df <= 0.0 {
        return f64::NAN;
    }
    let x = df / (df + t * t);
    beta_inc(df / 2.0, 0.5, x)
}

/// Chi-square survival function: `P(X >= x)` for `k` degrees of freedom.
pub fn chi_square_sf(x: f64, k: f64) -> f64 {
    if x <= 0.0 {
        return 1.0;
    }
    gamma_q(k / 2.0, x / 2.0)
}

/// Standard normal CDF via the complementary error function relation.
pub fn normal_cdf(z: f64) -> f64 {
    0.5 * erfc(-z / std::f64::consts::SQRT_2)
}

/// Complementary error function (via regularized incomplete gamma).
fn erfc(x: f64) -> f64 {
    if x >= 0.0 {
        gamma_q(0.5, x * x)
    } else {
        2.0 - gamma_q(0.5, x * x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} vs {b}");
    }

    #[test]
    fn ln_gamma_known_values() {
        close(ln_gamma(1.0), 0.0, 1e-12);
        close(ln_gamma(2.0), 0.0, 1e-12);
        close(ln_gamma(5.0), 24f64.ln(), 1e-10); // Γ(5)=24
        close(ln_gamma(0.5), std::f64::consts::PI.sqrt().ln(), 1e-10);
    }

    #[test]
    fn gamma_q_exponential_special_case() {
        // Q(1, x) = e^{-x}, through the series (x < 2) and the continued
        // fraction (x >= 2).
        for x in [0.1, 1.0, 2.0, 5.0] {
            close(gamma_q(1.0, x), (-x).exp(), 1e-12);
        }
    }

    #[test]
    fn chi_square_reference_values() {
        // From standard chi-square tables.
        close(chi_square_sf(3.841, 1.0), 0.05, 1e-3);
        close(chi_square_sf(5.991, 2.0), 0.05, 1e-3);
        close(chi_square_sf(6.635, 1.0), 0.01, 1e-3);
        close(chi_square_sf(0.0, 5.0), 1.0, 1e-12);
    }

    #[test]
    fn beta_inc_symmetry_and_bounds() {
        close(beta_inc(2.0, 3.0, 0.0), 0.0, 1e-15);
        close(beta_inc(2.0, 3.0, 1.0), 1.0, 1e-15);
        // I_x(a,b) = 1 - I_{1-x}(b,a).
        for x in [0.2, 0.5, 0.8] {
            close(
                beta_inc(2.0, 5.0, x),
                1.0 - beta_inc(5.0, 2.0, 1.0 - x),
                1e-10,
            );
        }
        // I_x(1,1) = x (uniform distribution).
        close(beta_inc(1.0, 1.0, 0.3), 0.3, 1e-10);
    }

    #[test]
    fn student_t_reference_values() {
        // Two-sided critical values: t=2.776, df=4 → p≈0.05.
        close(student_t_two_sided(2.776, 4.0), 0.05, 1e-3);
        // t=1.96 with large df approaches the normal 0.05.
        close(student_t_two_sided(1.96, 10_000.0), 0.05, 1e-3);
        close(student_t_two_sided(0.0, 10.0), 1.0, 1e-12);
    }

    #[test]
    fn normal_cdf_reference_values() {
        close(normal_cdf(0.0), 0.5, 1e-12);
        close(normal_cdf(1.96), 0.975, 1e-4);
        close(normal_cdf(-1.96), 0.025, 1e-4);
        close(normal_cdf(3.0), 0.99865, 1e-4);
    }

    #[test]
    fn erfc_reference() {
        close(erfc(0.0), 1.0, 1e-12);
        close(erfc(1.0), 0.157299, 1e-5);
        close(erfc(-1.0), 1.842701, 1e-5);
    }
}
