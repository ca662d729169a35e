//! Offline stand-in for `serde_json`.
//!
//! Thin facade over the `serde` stand-in's [`Value`] tree: JSON text
//! rendering ([`to_string`], [`to_string_pretty`]), parsing ([`from_str`],
//! [`from_slice`]), and the [`json!`] literal macro. Floats render via
//! Rust's shortest round-trip formatting, so values survive a
//! serialize→parse cycle exactly (the `float_roundtrip` cargo feature is
//! accepted and always on).

pub use serde::Error;
pub use serde::Map;
pub use serde::Value;

use serde::{Deserialize, Serialize};

/// Serialize `value` to compact JSON text.
///
/// # Errors
///
/// Infallible for well-formed values; the `Result` mirrors the real API.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    Ok(value.to_value().render_json())
}

/// Serialize `value` to human-indented JSON text.
///
/// # Errors
///
/// Infallible for well-formed values; the `Result` mirrors the real API.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    Ok(value.to_value().render_json_pretty())
}

/// Deserialize a `T` from JSON text.
///
/// # Errors
///
/// Returns an [`Error`] on malformed JSON or a shape mismatch.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    T::from_value(&Value::parse_json(s)?)
}

/// Deserialize a `T` from JSON bytes.
///
/// # Errors
///
/// Returns an [`Error`] on invalid UTF-8, malformed JSON, or a shape
/// mismatch.
pub fn from_slice<T: Deserialize>(b: &[u8]) -> Result<T, Error> {
    let s = std::str::from_utf8(b).map_err(|e| Error::msg(format!("invalid UTF-8: {e}")))?;
    from_str(s)
}

/// Deserialize a `T` from an already parsed [`Value`] tree — for callers
/// that probe the tree (a version stamp, say) before committing to `T`'s
/// layout, so the text is parsed once.
///
/// # Errors
///
/// Returns an [`Error`] on a shape mismatch.
pub fn from_value<T: Deserialize>(value: Value) -> Result<T, Error> {
    T::from_value(&value)
}

/// Convert any serializable value into a [`Value`] tree (used by `json!`).
pub fn to_value<T: Serialize + ?Sized>(value: &T) -> Value {
    value.to_value()
}

/// Build a [`Value`] from a JSON-like literal with embedded expressions.
#[macro_export]
macro_rules! json {
    ($($tt:tt)+) => {
        $crate::json_internal!($($tt)+)
    };
}

/// Implementation detail of [`json!`].
#[macro_export]
#[doc(hidden)]
macro_rules! json_internal {
    // ----- array elements -----
    (@array $vec:ident) => {};
    (@array $vec:ident , $($rest:tt)*) => {
        $crate::json_internal!(@array $vec $($rest)*);
    };
    (@array $vec:ident null $($rest:tt)*) => {
        $vec.push($crate::Value::Null);
        $crate::json_internal!(@array $vec $($rest)*);
    };
    (@array $vec:ident true $($rest:tt)*) => {
        $vec.push($crate::Value::Bool(true));
        $crate::json_internal!(@array $vec $($rest)*);
    };
    (@array $vec:ident false $($rest:tt)*) => {
        $vec.push($crate::Value::Bool(false));
        $crate::json_internal!(@array $vec $($rest)*);
    };
    (@array $vec:ident [$($arr:tt)*] $($rest:tt)*) => {
        $vec.push($crate::json_internal!([$($arr)*]));
        $crate::json_internal!(@array $vec $($rest)*);
    };
    (@array $vec:ident {$($map:tt)*} $($rest:tt)*) => {
        $vec.push($crate::json_internal!({$($map)*}));
        $crate::json_internal!(@array $vec $($rest)*);
    };
    (@array $vec:ident $value:expr , $($rest:tt)*) => {
        $vec.push($crate::to_value(&$value));
        $crate::json_internal!(@array $vec $($rest)*);
    };
    (@array $vec:ident $value:expr) => {
        $vec.push($crate::to_value(&$value));
    };

    // ----- object members (string-literal keys) -----
    (@object $obj:ident) => {};
    (@object $obj:ident , $($rest:tt)*) => {
        $crate::json_internal!(@object $obj $($rest)*);
    };
    (@object $obj:ident $key:literal : null $($rest:tt)*) => {
        $obj.push(($key.to_string(), $crate::Value::Null));
        $crate::json_internal!(@object $obj $($rest)*);
    };
    (@object $obj:ident $key:literal : true $($rest:tt)*) => {
        $obj.push(($key.to_string(), $crate::Value::Bool(true)));
        $crate::json_internal!(@object $obj $($rest)*);
    };
    (@object $obj:ident $key:literal : false $($rest:tt)*) => {
        $obj.push(($key.to_string(), $crate::Value::Bool(false)));
        $crate::json_internal!(@object $obj $($rest)*);
    };
    (@object $obj:ident $key:literal : [$($arr:tt)*] $($rest:tt)*) => {
        $obj.push(($key.to_string(), $crate::json_internal!([$($arr)*])));
        $crate::json_internal!(@object $obj $($rest)*);
    };
    (@object $obj:ident $key:literal : {$($map:tt)*} $($rest:tt)*) => {
        $obj.push(($key.to_string(), $crate::json_internal!({$($map)*})));
        $crate::json_internal!(@object $obj $($rest)*);
    };
    (@object $obj:ident $key:literal : $value:expr , $($rest:tt)*) => {
        $obj.push(($key.to_string(), $crate::to_value(&$value)));
        $crate::json_internal!(@object $obj $($rest)*);
    };
    (@object $obj:ident $key:literal : $value:expr) => {
        $obj.push(($key.to_string(), $crate::to_value(&$value)));
    };

    // ----- values -----
    (null) => {
        $crate::Value::Null
    };
    (true) => {
        $crate::Value::Bool(true)
    };
    (false) => {
        $crate::Value::Bool(false)
    };
    ([]) => {
        $crate::Value::Array(Vec::new())
    };
    ([ $($tt:tt)+ ]) => {{
        let mut elems: Vec<$crate::Value> = Vec::new();
        $crate::json_internal!(@array elems $($tt)+);
        $crate::Value::Array(elems)
    }};
    ({}) => {
        $crate::Value::Object($crate::Map::new())
    };
    ({ $($tt:tt)+ }) => {{
        let mut members: Vec<(String, $crate::Value)> = Vec::new();
        $crate::json_internal!(@object members $($tt)+);
        $crate::Value::Object($crate::Map::from(members))
    }};
    ($other:expr) => {
        $crate::to_value(&$other)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_macro_builds_nested_values() {
        let name = "abc".to_string();
        let v = json!({
            "s": name,
            "n": 3usize,
            "f": 1.5,
            "nested": { "a": [1, 2, 3], "b": null, "ok": true },
            "arr": [1.0, "two", false],
        });
        assert_eq!(v["s"], "abc");
        assert_eq!(v["n"].as_u64(), Some(3));
        assert_eq!(v["nested"]["a"][2].as_u64(), Some(3));
        assert!(v["nested"]["b"].is_null());
        assert_eq!(v["arr"][1], "two");
    }

    #[test]
    fn text_roundtrip_preserves_floats_and_ints() {
        let v = json!({ "f": 0.1f64 + 0.2f64, "u": u64::MAX, "i": -42i64 });
        let text = to_string(&v).unwrap();
        let back: Value = from_str(&text).unwrap();
        assert_eq!(v, back);
    }

    #[test]
    fn pretty_output_parses_back() {
        let v = json!({ "a": [1, 2], "b": { "c": "d" } });
        let back: Value = from_str(&to_string_pretty(&v).unwrap()).unwrap();
        assert_eq!(v, back);
    }

    #[test]
    fn string_escapes_roundtrip() {
        let v = json!({ "s": "quote \" backslash \\ newline \n tab \t" });
        let back: Value = from_str(&to_string(&v).unwrap()).unwrap();
        assert_eq!(v, back);
    }

    #[test]
    fn malformed_input_errors() {
        assert!(from_str::<Value>("{not json").is_err());
        assert!(from_str::<Value>("").is_err());
        assert!(from_str::<Value>("[1,").is_err());
        assert!(from_str::<Value>("{\"a\":1} trailing").is_err());
    }
}
