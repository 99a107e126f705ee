//! The JSON document tree.

pub use crate::number::Number;

/// A JSON value with insertion-ordered object members.
///
/// Object members are a `Vec` of pairs rather than a map: browsers
/// serialize object literals in property-creation order, and the byte
/// layout of the state blob depends on that order.
#[derive(Clone, PartialEq, Debug)]
pub enum Value {
    Null,
    Bool(bool),
    Num(Number),
    Str(String),
    Array(Vec<Value>),
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Construct an object from `(key, value)` pairs.
    pub fn object(members: Vec<(String, Value)>) -> Self {
        Value::Object(members)
    }

    /// Construct an array.
    pub fn array(items: Vec<Value>) -> Self {
        Value::Array(items)
    }

    /// Exact number of bytes [`crate::to_bytes`] will produce for `self`.
    ///
    /// This is the crate's core guarantee (checked by property tests):
    /// `self.serialized_len() == to_bytes(self).len()` for every value.
    pub fn serialized_len(&self) -> usize {
        match self {
            Value::Null => 4,
            Value::Bool(true) => 4,
            Value::Bool(false) => 5,
            Value::Num(n) => n.serialized_len(),
            Value::Str(s) => crate::escape::escaped_len(s) + 2,
            Value::Array(items) => {
                let inner: usize = items.iter().map(Value::serialized_len).sum();
                let commas = items.len().saturating_sub(1);
                2 + inner + commas
            }
            Value::Object(members) => {
                let inner: usize = members
                    .iter()
                    .map(|(k, v)| crate::escape::escaped_len(k) + 2 + 1 + v.serialized_len())
                    .sum();
                let commas = members.len().saturating_sub(1);
                2 + inner + commas
            }
        }
    }

    /// Look up a member of an object by key (first match).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer payload, if this is an integer number.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Num(Number::Int(v)) => Some(*v),
            _ => None,
        }
    }

    /// The items, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The members, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(members) => Some(members),
            _ => None,
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Num(Number::Int(v))
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_owned())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_and_bool_lengths() {
        assert_eq!(Value::Null.serialized_len(), 4);
        assert_eq!(Value::Bool(true).serialized_len(), 4);
        assert_eq!(Value::Bool(false).serialized_len(), 5);
    }

    #[test]
    fn get_on_object() {
        let v = Value::object(vec![
            ("x".into(), Value::from(1i64)),
            ("y".into(), Value::from("hi")),
        ]);
        assert_eq!(v.get("x").and_then(Value::as_i64), Some(1));
        assert_eq!(v.get("y").and_then(Value::as_str), Some("hi"));
        assert!(v.get("z").is_none());
        assert!(Value::Null.get("x").is_none());
    }

    #[test]
    fn accessor_type_mismatches_are_none() {
        assert!(Value::from("s").as_i64().is_none());
        assert!(Value::from(1i64).as_str().is_none());
        assert!(Value::Bool(true).as_array().is_none());
        assert!(Value::Array(vec![]).as_object().is_none());
    }

    #[test]
    fn empty_containers() {
        assert_eq!(Value::Array(vec![]).serialized_len(), 2);
        assert_eq!(Value::Object(vec![]).serialized_len(), 2);
    }

    #[test]
    fn string_len_includes_quotes_and_escapes() {
        assert_eq!(Value::from("ab").serialized_len(), 4);
        assert_eq!(Value::from("a\"b").serialized_len(), 6);
    }
}
