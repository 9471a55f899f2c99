//! JSON output for the vendored serde subset: any type implementing
//! [`serde::Serialize`] serializes through [`to_json`] (compact) or
//! [`to_json_pretty`] (2-space indent), by way of an adapter onto the one
//! JSON writer, [`soccar_obs::json::Writer`].

use serde::ser::{self, SerializeMap, SerializeSeq, SerializeStruct};
use serde::{Serialize, Serializer};
use soccar_obs::json::{Json, Writer};

/// Error type for JSON serialization. The writer is infallible; errors
/// only come from a `Serialize` impl calling [`ser::Error::custom`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError(String);

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json serialization error: {}", self.0)
    }
}

impl std::error::Error for JsonError {}

impl ser::Error for JsonError {
    fn custom<T: std::fmt::Display>(msg: T) -> JsonError {
        JsonError(msg.to_string())
    }
}

/// Serializes `value` as compact JSON.
///
/// # Errors
///
/// Only if a `Serialize` impl reports a custom error.
pub fn to_json<T: ?Sized + Serialize>(value: &T) -> Result<String, JsonError> {
    let mut out = String::new();
    value.serialize(JsonSerializer(&mut Writer::compact(&mut out)))?;
    Ok(out)
}

/// Serializes `value` as human-readable JSON with 2-space indentation.
///
/// # Errors
///
/// Only if a `Serialize` impl reports a custom error.
pub fn to_json_pretty<T: ?Sized + Serialize>(value: &T) -> Result<String, JsonError> {
    let mut out = String::new();
    value.serialize(JsonSerializer(&mut Writer::pretty(&mut out)))?;
    Ok(out)
}

/// The serde `Serializer` writing one value through a [`Writer`], and the
/// open sequence, struct or map it returns (the writer tracks separators).
struct JsonSerializer<'w, 'a>(&'w mut Writer<'a>);

impl<'w, 'a> Serializer for JsonSerializer<'w, 'a> {
    type Ok = ();
    type Error = JsonError;
    type SerializeSeq = Self;
    type SerializeStruct = Self;
    type SerializeMap = Self;

    fn serialize_bool(self, v: bool) -> Result<(), JsonError> {
        self.0.bool(v);
        Ok(())
    }

    fn serialize_i64(self, v: i64) -> Result<(), JsonError> {
        self.0.i64(v);
        Ok(())
    }

    fn serialize_u64(self, v: u64) -> Result<(), JsonError> {
        self.0.u64(v);
        Ok(())
    }

    fn serialize_f64(self, v: f64) -> Result<(), JsonError> {
        self.0.f64(v);
        Ok(())
    }

    fn serialize_str(self, v: &str) -> Result<(), JsonError> {
        self.0.string(v);
        Ok(())
    }

    fn serialize_unit(self) -> Result<(), JsonError> {
        self.0.null();
        Ok(())
    }

    fn serialize_seq(self, _len: Option<usize>) -> Result<Self, JsonError> {
        self.0.begin_array();
        Ok(self)
    }

    fn serialize_struct(self, _name: &'static str, _len: usize) -> Result<Self, JsonError> {
        self.0.begin_object();
        Ok(self)
    }

    fn serialize_map(self, _len: Option<usize>) -> Result<Self, JsonError> {
        self.0.begin_object();
        Ok(self)
    }
}

impl SerializeSeq for JsonSerializer<'_, '_> {
    type Ok = ();
    type Error = JsonError;

    fn serialize_element<T: ?Sized + Serialize>(&mut self, value: &T) -> Result<(), JsonError> {
        value.serialize(JsonSerializer(self.0))
    }

    fn end(self) -> Result<(), JsonError> {
        self.0.end_array();
        Ok(())
    }
}

impl SerializeStruct for JsonSerializer<'_, '_> {
    type Ok = ();
    type Error = JsonError;

    fn serialize_field<T: ?Sized + Serialize>(
        &mut self,
        key: &'static str,
        value: &T,
    ) -> Result<(), JsonError> {
        self.0.key(key);
        value.serialize(JsonSerializer(self.0))
    }

    fn end(self) -> Result<(), JsonError> {
        self.0.end_object();
        Ok(())
    }
}

impl SerializeMap for JsonSerializer<'_, '_> {
    type Ok = ();
    type Error = JsonError;

    fn serialize_entry<K: ?Sized + Serialize, V: ?Sized + Serialize>(
        &mut self,
        key: &K,
        value: &V,
    ) -> Result<(), JsonError> {
        // JSON object keys are strings: render the key as a value, and
        // quote it when it came out as a bare number or boolean.
        let text = to_json(key)?;
        let key = match Json::parse(&text) {
            Ok(Json::Str(key)) => key,
            _ => text,
        };
        self.0.key(&key);
        value.serialize(JsonSerializer(self.0))
    }

    fn end(self) -> Result<(), JsonError> {
        self.0.end_object();
        Ok(())
    }
}
