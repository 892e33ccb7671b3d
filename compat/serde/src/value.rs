//! The in-memory JSON data model shared by `serde` and `serde_json`.

use crate::Error;

/// A JSON value with exact integers and insertion-ordered objects.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null` (also the encoding of `None` and non-finite floats).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer representable as `i64` (the common case).
    Int(i64),
    /// An integer above `i64::MAX` — e.g. `f64` bit patterns stored by
    /// `mlcomp_linalg::serde_bits`.
    UInt(u64),
    /// A floating-point number.
    Float(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object; keys keep insertion order so output is byte-stable.
    Object(Object),
}

impl Value {
    /// A short name of the value's JSON kind, for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Int(_) | Value::UInt(_) => "integer",
            Value::Float(_) => "number",
            Value::String(_) => "string",
            Value::Array(_) => "array",
            Value::Object(_) => "object",
        }
    }

    /// The string payload, when this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The object payload, when this is an object.
    pub fn as_object(&self) -> Option<&Object> {
        match self {
            Value::Object(o) => Some(o),
            _ => None,
        }
    }

    /// The array payload, when this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// Builds the externally-tagged enum encoding `{"tag": inner}`.
    pub fn tagged(tag: &str, inner: Value) -> Value {
        let mut obj = Object::with_capacity(1);
        obj.insert(tag, inner);
        Value::Object(obj)
    }

    /// Destructures the externally-tagged enum encoding: an object with
    /// exactly one key.
    pub fn as_tagged(&self) -> Option<(&str, &Value)> {
        let obj = self.as_object()?;
        if obj.len() == 1 {
            let (k, v) = &obj.entries[0];
            Some((k, v))
        } else {
            None
        }
    }
}

impl crate::Serialize for Value {
    fn serialize(&self) -> Value {
        self.clone()
    }
}

impl crate::Deserialize for Value {
    fn deserialize(v: &Value) -> Result<Value, Error> {
        Ok(v.clone())
    }
}

/// An insertion-ordered string-keyed map.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Object {
    pub(crate) entries: Vec<(String, Value)>,
}

impl Object {
    /// An empty object.
    pub fn new() -> Object {
        Object::default()
    }

    /// An empty object with reserved capacity.
    pub fn with_capacity(n: usize) -> Object {
        Object {
            entries: Vec::with_capacity(n),
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the object has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Appends an entry (no duplicate check; derive output never
    /// duplicates keys).
    pub fn insert(&mut self, key: &str, value: Value) {
        self.entries.push((key.to_string(), value));
    }

    /// Looks up a key.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Looks up a mandatory struct field.
    ///
    /// # Errors
    ///
    /// Returns [`Error`] when the field is absent.
    pub fn field(&self, key: &str) -> Result<&Value, Error> {
        self.get(key)
            .ok_or_else(|| Error::msg(format!("missing field `{key}`")))
    }

    /// Iterates entries in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v))
    }
}
