//! Scale configuration shared by every experiment driver.

/// How large the synthetic workloads are, as a fraction of the paper's
/// dataset sizes.
///
/// The defaults keep every experiment comfortably below a minute on a
/// laptop; the scales actually used for the numbers in EXPERIMENTS.md are
/// recorded there. Scales can be overridden from the environment
/// (`COPYDET_BOOK_SCALE`, `COPYDET_STOCK_SCALE`, `COPYDET_SEED`) so the
/// drivers can be rerun at larger sizes without recompiling.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExperimentConfig {
    /// Scale factor for the Book-CS / Book-full presets.
    pub book_scale: f64,
    /// Scale factor for the Stock-1day / Stock-2wk presets.
    pub stock_scale: f64,
    /// Seed for the synthetic generators and sampling.
    pub seed: u64,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        Self { book_scale: 0.08, stock_scale: 0.015, seed: 20150301 }
    }
}

impl ExperimentConfig {
    /// A configuration small enough for unit tests.
    pub fn tiny() -> Self {
        Self { book_scale: 0.03, stock_scale: 0.004, seed: 7 }
    }

    /// Reads the configuration from the environment, falling back to the
    /// defaults for anything unset or malformed.
    pub fn from_env() -> Self {
        let mut config = Self::default();
        if let Ok(v) = std::env::var("COPYDET_BOOK_SCALE") {
            if let Ok(parsed) = v.parse::<f64>() {
                if parsed > 0.0 && parsed <= 1.0 {
                    config.book_scale = parsed;
                }
            }
        }
        if let Ok(v) = std::env::var("COPYDET_STOCK_SCALE") {
            if let Ok(parsed) = v.parse::<f64>() {
                if parsed > 0.0 && parsed <= 1.0 {
                    config.stock_scale = parsed;
                }
            }
        }
        if let Ok(v) = std::env::var("COPYDET_SEED") {
            if let Ok(parsed) = v.parse::<u64>() {
                config.seed = parsed;
            }
        }
        config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = ExperimentConfig::default();
        assert!(c.book_scale > 0.0 && c.book_scale <= 1.0);
        assert!(c.stock_scale > 0.0 && c.stock_scale <= 1.0);
        let t = ExperimentConfig::tiny();
        assert!(t.book_scale <= c.book_scale);
    }
}
