//! Model hyperparameters and the `*-sim` model zoo.
//!
//! Field names follow HF `config.json` conventions so that the checkpoint
//! layer can read/write config files that look like the real thing. The
//! zoo keeps the *layer counts, tying and bias structure* of the paper's
//! three models while shrinking the width so that end-to-end training runs
//! on CPUs (see DESIGN.md's substitution table).

use serde::{Deserialize, Serialize};
use std::fmt;

/// A structural inconsistency in a [`ModelConfig`].
///
/// Configs read back from a checkpoint's `config.json` can be valid JSON
/// yet describe an impossible model (heads that don't divide the hidden
/// size, a zero vocabulary, ...). Load paths surface this as a typed error
/// instead of panicking inside model construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    /// The first violated constraint, human-readable.
    pub reason: String,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid model config: {}", self.reason)
    }
}

impl std::error::Error for ConfigError {}

impl ConfigError {
    fn new(reason: impl Into<String>) -> Self {
        ConfigError {
            reason: reason.into(),
        }
    }
}

/// Decoder-only transformer hyperparameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelConfig {
    /// Human-readable model identifier (e.g. `"llama3.1-8b-sim"`).
    pub model_name: String,
    /// Token vocabulary size.
    pub vocab_size: usize,
    /// Residual stream width.
    pub hidden_size: usize,
    /// SwiGLU MLP inner width.
    pub intermediate_size: usize,
    /// Number of transformer blocks (the paper's `L`).
    pub num_hidden_layers: usize,
    /// Attention head count; must divide `hidden_size`.
    pub num_attention_heads: usize,
    /// Key/value head count (grouped-query attention): consecutive runs of
    /// `num_attention_heads / num_key_value_heads` query heads share one
    /// key/value head. The `*-sim` zoo mirrors the released models' GQA
    /// ratios; paper-scale configs carry the real values so byte
    /// arithmetic matches the released checkpoints.
    pub num_key_value_heads: usize,
    /// Whether `lm_head` shares its weight with `embed_tokens`
    /// (paper §2.1: smaller models are often weight-tied).
    pub tie_word_embeddings: bool,
    /// Whether q/k/v projections carry biases (true for Qwen-2.5, false
    /// for Llama-3.x) — biases land in the no-decay parameter group.
    pub attention_bias: bool,
    /// Maximum sequence length used for RoPE tables.
    pub max_position_embeddings: usize,
    /// RoPE base frequency.
    pub rope_theta: f32,
    /// RMSNorm epsilon.
    pub rms_norm_eps: f32,
}

impl ModelConfig {
    /// Head dimension (`hidden_size / num_attention_heads`).
    #[inline]
    pub fn head_dim(&self) -> usize {
        self.hidden_size / self.num_attention_heads
    }

    /// Width of the key/value projections
    /// (`head_dim * num_key_value_heads`).
    #[inline]
    pub fn kv_dim(&self) -> usize {
        self.head_dim() * self.num_key_value_heads
    }

    /// Whether a distinct `lm_head.weight` parameter exists.
    #[inline]
    pub fn has_lm_head(&self) -> bool {
        !self.tie_word_embeddings
    }

    /// Total count of tailorable units: `L` transformer layers plus the
    /// auxiliary layers (`embed_tokens`, `norm`, and `lm_head` if untied).
    /// This is the paper's "total layers" column in Table 7 (18 for the
    /// 1B model, 35 for the 8B model).
    pub fn num_units(&self) -> usize {
        self.num_hidden_layers + 2 + usize::from(self.has_lm_head())
    }

    /// Number of auxiliary (non-transformer) units — the paper's `x` in
    /// the `2L + x` parameter-group count.
    pub fn num_aux_units(&self) -> usize {
        2 + usize::from(self.has_lm_head())
    }

    /// Validate internal consistency; returns a description of the first
    /// violated constraint.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.hidden_size == 0 || self.vocab_size == 0 || self.num_hidden_layers == 0 {
            return Err(ConfigError::new("zero-sized dimension"));
        }
        if self.num_attention_heads == 0
            || !self.hidden_size.is_multiple_of(self.num_attention_heads)
        {
            return Err(ConfigError::new(format!(
                "hidden_size {} not divisible by num_attention_heads {}",
                self.hidden_size, self.num_attention_heads
            )));
        }
        if !self.head_dim().is_multiple_of(2) {
            return Err(ConfigError::new(format!(
                "head_dim {} must be even for RoPE",
                self.head_dim()
            )));
        }
        if self.num_key_value_heads == 0
            || !self
                .num_attention_heads
                .is_multiple_of(self.num_key_value_heads)
        {
            return Err(ConfigError::new(format!(
                "num_key_value_heads {} must divide num_attention_heads {}",
                self.num_key_value_heads, self.num_attention_heads
            )));
        }
        if self.max_position_embeddings == 0 {
            return Err(ConfigError::new("max_position_embeddings must be positive"));
        }
        Ok(())
    }

    /// Two configs describe mergeable checkpoints iff every structural
    /// field matches (names may differ).
    pub fn structurally_equal(&self, other: &ModelConfig) -> bool {
        self.vocab_size == other.vocab_size
            && self.hidden_size == other.hidden_size
            && self.intermediate_size == other.intermediate_size
            && self.num_hidden_layers == other.num_hidden_layers
            && self.num_attention_heads == other.num_attention_heads
            && self.num_key_value_heads == other.num_key_value_heads
            && self.tie_word_embeddings == other.tie_word_embeddings
            && self.attention_bias == other.attention_bias
    }

    // ----- model zoo --------------------------------------------------

    /// Simulated Llama-3.2-1B: 16 transformer layers, weight-tied head,
    /// no attention biases. 18 tailorable units, matching Table 7's
    /// "Llama3-1B / total layers 18".
    pub fn llama32_1b_sim() -> Self {
        ModelConfig {
            model_name: "llama3.2-1b-sim".into(),
            vocab_size: 512,
            hidden_size: 64,
            intermediate_size: 160,
            num_hidden_layers: 16,
            num_attention_heads: 4,
            num_key_value_heads: 1, // 4:1, the released model's GQA ratio
            tie_word_embeddings: true,
            attention_bias: false,
            max_position_embeddings: 256,
            rope_theta: 10_000.0,
            rms_norm_eps: 1e-5,
        }
    }

    /// Simulated Llama-3.1-8B: 32 transformer layers, untied head,
    /// no attention biases. 35 units, matching Table 7's "Llama3-8B /
    /// total layers 35".
    pub fn llama31_8b_sim() -> Self {
        ModelConfig {
            model_name: "llama3.1-8b-sim".into(),
            vocab_size: 512,
            hidden_size: 96,
            intermediate_size: 256,
            num_hidden_layers: 32,
            num_attention_heads: 8,
            num_key_value_heads: 2, // 4:1, the released model's GQA ratio
            tie_word_embeddings: false,
            attention_bias: false,
            max_position_embeddings: 256,
            rope_theta: 500_000.0,
            rms_norm_eps: 1e-5,
        }
    }

    /// Simulated Qwen-2.5-7B: 28 transformer layers, untied head, q/k/v
    /// biases present (Qwen-2.5's signature), 31 units.
    pub fn qwen25_7b_sim() -> Self {
        ModelConfig {
            model_name: "qwen2.5-7b-sim".into(),
            vocab_size: 512,
            hidden_size: 84,
            intermediate_size: 256,
            num_hidden_layers: 28,
            num_attention_heads: 7,
            num_key_value_heads: 1, // 7:1, the released model's GQA ratio
            tie_word_embeddings: false,
            attention_bias: true,
            max_position_embeddings: 256,
            rope_theta: 1_000_000.0,
            rms_norm_eps: 1e-6,
        }
    }

    /// Minimal config for fast unit tests and gradient checks.
    pub fn tiny_test() -> Self {
        ModelConfig {
            model_name: "tiny-test".into(),
            vocab_size: 37,
            hidden_size: 16,
            intermediate_size: 24,
            num_hidden_layers: 2,
            num_attention_heads: 2,
            num_key_value_heads: 2,
            tie_word_embeddings: false,
            attention_bias: true,
            max_position_embeddings: 32,
            rope_theta: 10_000.0,
            rms_norm_eps: 1e-5,
        }
    }

    /// Tiny GQA config: 4 query heads sharing 2 key/value heads
    /// (exercises the grouped-attention path end to end).
    pub fn tiny_test_gqa() -> Self {
        ModelConfig {
            model_name: "tiny-test-gqa".into(),
            num_attention_heads: 4,
            num_key_value_heads: 2,
            ..Self::tiny_test()
        }
    }

    /// Tiny *tied* config (exercises the `lm_head`-absent path).
    pub fn tiny_test_tied() -> Self {
        ModelConfig {
            model_name: "tiny-test-tied".into(),
            tie_word_embeddings: true,
            attention_bias: false,
            ..Self::tiny_test()
        }
    }

    /// Paper-scale parameter counts for size projections: the real models'
    /// dimensions, used *only* for byte-count arithmetic in the storage
    /// model (never instantiated as tensors).
    pub fn paper_scale(name: &str) -> Option<ModelConfig> {
        match name {
            "llama3.2-1b" => Some(ModelConfig {
                model_name: "llama3.2-1b".into(),
                vocab_size: 128_256,
                hidden_size: 2048,
                intermediate_size: 8192,
                num_hidden_layers: 16,
                num_attention_heads: 32,
                num_key_value_heads: 8,
                tie_word_embeddings: true,
                attention_bias: false,
                max_position_embeddings: 131_072,
                rope_theta: 500_000.0,
                rms_norm_eps: 1e-5,
            }),
            "llama3.1-8b" => Some(ModelConfig {
                model_name: "llama3.1-8b".into(),
                vocab_size: 128_256,
                hidden_size: 4096,
                intermediate_size: 14_336,
                num_hidden_layers: 32,
                num_attention_heads: 32,
                num_key_value_heads: 8,
                tie_word_embeddings: false,
                attention_bias: false,
                max_position_embeddings: 131_072,
                rope_theta: 500_000.0,
                rms_norm_eps: 1e-5,
            }),
            "qwen2.5-7b" => Some(ModelConfig {
                model_name: "qwen2.5-7b".into(),
                vocab_size: 152_064,
                hidden_size: 3584,
                intermediate_size: 18_944,
                num_hidden_layers: 28,
                num_attention_heads: 28,
                num_key_value_heads: 4,
                tie_word_embeddings: false,
                attention_bias: true,
                max_position_embeddings: 131_072,
                rope_theta: 1_000_000.0,
                rms_norm_eps: 1e-6,
            }),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zoo_configs_validate() {
        for c in [
            ModelConfig::llama32_1b_sim(),
            ModelConfig::llama31_8b_sim(),
            ModelConfig::qwen25_7b_sim(),
            ModelConfig::tiny_test(),
            ModelConfig::tiny_test_tied(),
            ModelConfig::tiny_test_gqa(),
        ] {
            c.validate()
                .unwrap_or_else(|e| panic!("{}: {e}", c.model_name));
        }
    }

    #[test]
    fn unit_counts_match_paper_table7() {
        assert_eq!(ModelConfig::llama32_1b_sim().num_units(), 18);
        assert_eq!(ModelConfig::llama31_8b_sim().num_units(), 35);
        assert_eq!(ModelConfig::qwen25_7b_sim().num_units(), 31);
    }

    #[test]
    fn aux_unit_counts() {
        assert_eq!(ModelConfig::llama32_1b_sim().num_aux_units(), 2); // tied
        assert_eq!(ModelConfig::llama31_8b_sim().num_aux_units(), 3);
    }

    #[test]
    fn validate_catches_bad_heads() {
        let mut c = ModelConfig::tiny_test();
        c.num_attention_heads = 3;
        assert!(c.validate().is_err());
    }

    #[test]
    fn validate_catches_odd_head_dim() {
        let mut c = ModelConfig::tiny_test();
        c.hidden_size = 18;
        c.num_attention_heads = 2; // head_dim 9: odd
        assert!(c.validate().is_err());
    }

    #[test]
    fn structural_equality_ignores_name() {
        let a = ModelConfig::tiny_test();
        let mut b = a.clone();
        b.model_name = "other".into();
        assert!(a.structurally_equal(&b));
        b.num_hidden_layers += 1;
        assert!(!a.structurally_equal(&b));
        // The key/value head count sizes k_proj and v_proj.
        let mut c = a.clone();
        c.num_key_value_heads = 1;
        assert!(!a.structurally_equal(&c));
    }

    #[test]
    fn config_json_round_trip() {
        let c = ModelConfig::qwen25_7b_sim();
        let json = serde_json::to_string_pretty(&c).unwrap();
        let back: ModelConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(c, back);
    }

    #[test]
    fn paper_scale_llama8b_param_count_is_about_8b() {
        let c = ModelConfig::paper_scale("llama3.1-8b").unwrap();
        // GQA-aware parameter count; the released model has 8.03B.
        let per_layer = 2 * c.hidden_size * c.hidden_size
            + 2 * c.hidden_size * c.kv_dim()
            + 3 * c.hidden_size * c.intermediate_size
            + 2 * c.hidden_size;
        let total =
            c.vocab_size * c.hidden_size * 2 + c.num_hidden_layers * per_layer + c.hidden_size;
        let err = (total as f64 - 8.03e9).abs() / 8.03e9;
        assert!(
            err < 0.01,
            "total {total} is {err:.3} off the released 8.03B"
        );
    }
}
