//! Element data types supported by the tensor language.

use std::fmt;

/// Element type of a tensor.
///
/// The set mirrors what the paper's three DLAs consume: TensorCore operates
/// on `F16` inputs with `F32` accumulation, DL Boost (VNNI) on `I8` inputs
/// with `I32` accumulation, and VTA on `I8`/`I32`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DType {
    /// 16-bit IEEE floating point.
    F16,
    /// 16-bit bfloat.
    BF16,
    /// 32-bit IEEE floating point.
    F32,
    /// 8-bit signed integer.
    I8,
    /// 32-bit signed integer.
    I32,
}

impl DType {
    /// Size of one element in bytes.
    ///
    /// ```
    /// use heron_tensor::DType;
    /// assert_eq!(DType::F16.bytes(), 2);
    /// assert_eq!(DType::I32.bytes(), 4);
    /// ```
    pub fn bytes(self) -> u64 {
        match self {
            DType::F16 | DType::BF16 => 2,
            DType::F32 | DType::I32 => 4,
            DType::I8 => 1,
        }
    }

    /// The natural accumulator type for multiply-accumulate chains on DLAs.
    pub fn accumulator(self) -> DType {
        match self {
            DType::F16 | DType::BF16 | DType::F32 => DType::F32,
            DType::I8 | DType::I32 => DType::I32,
        }
    }
}

impl fmt::Display for DType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DType::F16 => "f16",
            DType::BF16 => "bf16",
            DType::F32 => "f32",
            DType::I8 => "i8",
            DType::I32 => "i32",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_match_width() {
        assert_eq!(DType::F16.bytes(), 2);
        assert_eq!(DType::BF16.bytes(), 2);
        assert_eq!(DType::F32.bytes(), 4);
        assert_eq!(DType::I8.bytes(), 1);
        assert_eq!(DType::I32.bytes(), 4);
    }

    #[test]
    fn accumulators_widen() {
        assert_eq!(DType::F16.accumulator(), DType::F32);
        assert_eq!(DType::I8.accumulator(), DType::I32);
        assert_eq!(DType::F32.accumulator(), DType::F32);
    }

    #[test]
    fn display_is_lowercase() {
        assert_eq!(DType::F16.to_string(), "f16");
        assert_eq!(DType::I32.to_string(), "i32");
    }
}
