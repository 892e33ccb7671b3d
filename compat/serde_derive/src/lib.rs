//! `#[derive(Serialize, Deserialize)]` for the workspace-local serde
//! stand-in.
//!
//! The offline build environment has no `syn`/`quote`, so this macro
//! parses the item declaration directly from [`proc_macro::TokenStream`]
//! token trees. It supports exactly the shapes the workspace declares:
//!
//! * structs with named fields (with optional `#[serde(with = "path")]`
//!   per-field overrides),
//! * tuple structs (newtype and multi-field),
//! * enums with unit, tuple and struct variants (externally tagged, the
//!   upstream serde default),
//!
//! and deliberately rejects generic items — none exist in this workspace,
//! and refusing loudly beats miscompiling quietly.

use proc_macro::{Delimiter, TokenStream, TokenTree};
use std::iter::Peekable;

/// Derives `serde::Serialize` for a struct or enum.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_serialize(&item)
        .parse()
        .expect("generated Serialize impl parses")
}

/// Derives `serde::Deserialize` for a struct or enum.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_deserialize(&item)
        .parse()
        .expect("generated Deserialize impl parses")
}

// ---------------------------------------------------------------------------
// Item model
// ---------------------------------------------------------------------------

struct Field {
    name: String,
    /// Path from `#[serde(with = "path")]`, if present.
    with: Option<String>,
}

enum Fields {
    Named(Vec<Field>),
    Tuple(usize),
    Unit,
}

struct Variant {
    name: String,
    fields: Fields,
}

enum Item {
    Struct {
        name: String,
        fields: Fields,
    },
    Enum {
        name: String,
        variants: Vec<Variant>,
    },
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

type TokenIter = Peekable<proc_macro::token_stream::IntoIter>;

/// Consumes leading outer attributes, returning the `with`-path if any of
/// them is `#[serde(with = "path")]`.
fn skip_attrs(it: &mut TokenIter) -> Option<String> {
    let mut with = None;
    while matches!(it.peek(), Some(TokenTree::Punct(p)) if p.as_char() == '#') {
        it.next();
        let Some(TokenTree::Group(g)) = it.next() else {
            panic!("expected attribute body after `#`");
        };
        if let Some(w) = parse_serde_with(g.stream()) {
            with = Some(w);
        }
    }
    with
}

/// Extracts `path` out of a `serde(with = "path")` attribute body.
fn parse_serde_with(attr: TokenStream) -> Option<String> {
    let mut it = attr.into_iter();
    match it.next() {
        Some(TokenTree::Ident(i)) if i.to_string() == "serde" => {}
        _ => return None,
    }
    let Some(TokenTree::Group(args)) = it.next() else {
        return None;
    };
    let mut args = args.stream().into_iter();
    match args.next() {
        Some(TokenTree::Ident(i)) if i.to_string() == "with" => {}
        other => {
            panic!("unsupported serde attribute: {other:?} (only `with = \"path\"` is implemented)")
        }
    }
    match args.next() {
        Some(TokenTree::Punct(p)) if p.as_char() == '=' => {}
        _ => panic!("expected `=` in #[serde(with = ...)]"),
    }
    match args.next() {
        Some(TokenTree::Literal(l)) => {
            let s = l.to_string();
            Some(s.trim_matches('"').to_string())
        }
        _ => panic!("expected string literal in #[serde(with = ...)]"),
    }
}

fn skip_visibility(it: &mut TokenIter) {
    if matches!(it.peek(), Some(TokenTree::Ident(i)) if i.to_string() == "pub") {
        it.next();
        if matches!(it.peek(), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
        {
            it.next();
        }
    }
}

fn expect_ident(it: &mut TokenIter, what: &str) -> String {
    match it.next() {
        Some(TokenTree::Ident(i)) => i.to_string(),
        other => panic!("expected {what}, found {other:?}"),
    }
}

fn parse_item(input: TokenStream) -> Item {
    let mut it = input.into_iter().peekable();
    skip_attrs(&mut it);
    skip_visibility(&mut it);
    let kw = expect_ident(&mut it, "`struct` or `enum`");
    let name = expect_ident(&mut it, "item name");
    if matches!(it.peek(), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        panic!("derive(Serialize/Deserialize): generic items are not supported (item `{name}`)");
    }
    match kw.as_str() {
        "struct" => {
            let fields = match it.next() {
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                    Fields::Named(parse_named_fields(g.stream()))
                }
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                    Fields::Tuple(count_tuple_fields(g.stream()))
                }
                Some(TokenTree::Punct(p)) if p.as_char() == ';' => Fields::Unit,
                other => panic!("unexpected token after `struct {name}`: {other:?}"),
            };
            Item::Struct { name, fields }
        }
        "enum" => match it.next() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => Item::Enum {
                name,
                variants: parse_variants(g.stream()),
            },
            other => panic!("expected enum body for `{name}`, found {other:?}"),
        },
        other => panic!("derive target must be a struct or enum, found `{other}`"),
    }
}

/// Parses `name: Type, ...` named fields; field types are skipped (codegen
/// relies on inference), only names and `with`-attributes are kept.
fn parse_named_fields(ts: TokenStream) -> Vec<Field> {
    let mut it = ts.into_iter().peekable();
    let mut fields = Vec::new();
    while it.peek().is_some() {
        let with = skip_attrs(&mut it);
        skip_visibility(&mut it);
        let name = expect_ident(&mut it, "field name");
        match it.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => {}
            other => panic!("expected `:` after field `{name}`, found {other:?}"),
        }
        skip_type_until_comma(&mut it);
        fields.push(Field { name, with });
    }
    fields
}

/// Consumes a type up to (and including) the next top-level `,`, tracking
/// `<...>` nesting — group delimiters arrive pre-nested as single token
/// trees, but angle brackets are bare puncts.
fn skip_type_until_comma(it: &mut TokenIter) {
    let mut angle_depth = 0i32;
    for tok in it.by_ref() {
        match tok {
            TokenTree::Punct(p) if p.as_char() == '<' => angle_depth += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => angle_depth -= 1,
            TokenTree::Punct(p) if p.as_char() == ',' && angle_depth == 0 => return,
            _ => {}
        }
    }
}

/// Counts the fields of a tuple struct / tuple variant.
fn count_tuple_fields(ts: TokenStream) -> usize {
    let mut count = 0;
    let mut segment_nonempty = false;
    let mut angle_depth = 0i32;
    for tok in ts {
        match tok {
            TokenTree::Punct(p) if p.as_char() == '<' => {
                angle_depth += 1;
                segment_nonempty = true;
            }
            TokenTree::Punct(p) if p.as_char() == '>' => {
                angle_depth -= 1;
                segment_nonempty = true;
            }
            TokenTree::Punct(p) if p.as_char() == ',' && angle_depth == 0 => {
                if segment_nonempty {
                    count += 1;
                }
                segment_nonempty = false;
            }
            _ => segment_nonempty = true,
        }
    }
    if segment_nonempty {
        count += 1;
    }
    count
}

fn parse_variants(ts: TokenStream) -> Vec<Variant> {
    let mut it = ts.into_iter().peekable();
    let mut variants = Vec::new();
    while it.peek().is_some() {
        skip_attrs(&mut it);
        let name = expect_ident(&mut it, "variant name");
        let fields = match it.peek() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let n = count_tuple_fields(g.stream());
                it.next();
                Fields::Tuple(n)
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let f = parse_named_fields(g.stream());
                it.next();
                Fields::Named(f)
            }
            _ => Fields::Unit,
        };
        match it.next() {
            None => {}
            Some(TokenTree::Punct(p)) if p.as_char() == ',' => {}
            other => panic!("expected `,` after variant `{name}`, found {other:?} (discriminants are not supported)"),
        }
        variants.push(Variant { name, fields });
    }
    variants
}

// ---------------------------------------------------------------------------
// Codegen (emitted as source text, then re-parsed)
// ---------------------------------------------------------------------------

fn ser_field_expr(f: &Field, access: &str) -> String {
    match &f.with {
        Some(path) => format!("{path}::serialize(&{access})"),
        None => format!("::serde::Serialize::serialize(&{access})"),
    }
}

fn de_field_expr(f: &Field, value: &str) -> String {
    match &f.with {
        Some(path) => format!("{path}::deserialize({value})?"),
        None => format!("::serde::Deserialize::deserialize({value})?"),
    }
}

fn gen_serialize(item: &Item) -> String {
    let mut body = String::new();
    match item {
        Item::Struct { name, fields } => {
            let expr = match fields {
                Fields::Named(fs) => {
                    let mut s = format!(
                        "let mut __obj = ::serde::value::Object::with_capacity({});\n",
                        fs.len()
                    );
                    for f in fs {
                        s.push_str(&format!(
                            "__obj.insert(\"{}\", {});\n",
                            f.name,
                            ser_field_expr(f, &format!("self.{}", f.name))
                        ));
                    }
                    s.push_str("::serde::Value::Object(__obj)");
                    s
                }
                Fields::Tuple(1) => "::serde::Serialize::serialize(&self.0)".to_string(),
                Fields::Tuple(n) => {
                    let items: Vec<String> = (0..*n)
                        .map(|i| format!("::serde::Serialize::serialize(&self.{i})"))
                        .collect();
                    format!("::serde::Value::Array(vec![{}])", items.join(", "))
                }
                Fields::Unit => "::serde::Value::Null".to_string(),
            };
            body.push_str(&format!(
                "impl ::serde::Serialize for {name} {{\n\
                 fn serialize(&self) -> ::serde::Value {{\n{expr}\n}}\n}}\n"
            ));
        }
        Item::Enum { name, variants } => {
            let mut arms = String::new();
            for v in variants {
                let vn = &v.name;
                match &v.fields {
                    Fields::Unit => arms.push_str(&format!(
                        "{name}::{vn} => ::serde::Value::String(\"{vn}\".to_string()),\n"
                    )),
                    Fields::Tuple(1) => arms.push_str(&format!(
                        "{name}::{vn}(__f0) => ::serde::Value::tagged(\"{vn}\", \
                         ::serde::Serialize::serialize(__f0)),\n"
                    )),
                    Fields::Tuple(n) => {
                        let pats: Vec<String> = (0..*n).map(|i| format!("__f{i}")).collect();
                        let items: Vec<String> = (0..*n)
                            .map(|i| format!("::serde::Serialize::serialize(__f{i})"))
                            .collect();
                        arms.push_str(&format!(
                            "{name}::{vn}({}) => ::serde::Value::tagged(\"{vn}\", \
                             ::serde::Value::Array(vec![{}])),\n",
                            pats.join(", "),
                            items.join(", ")
                        ));
                    }
                    Fields::Named(fs) => {
                        let pats: Vec<String> = fs.iter().map(|f| f.name.clone()).collect();
                        let mut inner = format!(
                            "let mut __obj = ::serde::value::Object::with_capacity({});\n",
                            fs.len()
                        );
                        for f in fs {
                            inner.push_str(&format!(
                                "__obj.insert(\"{}\", {});\n",
                                f.name,
                                match &f.with {
                                    Some(path) => format!("{path}::serialize({})", f.name),
                                    None => format!("::serde::Serialize::serialize({})", f.name),
                                }
                            ));
                        }
                        arms.push_str(&format!(
                            "{name}::{vn} {{ {} }} => {{\n{inner}\
                             ::serde::Value::tagged(\"{vn}\", ::serde::Value::Object(__obj))\n}}\n",
                            pats.join(", ")
                        ));
                    }
                }
            }
            body.push_str(&format!(
                "impl ::serde::Serialize for {name} {{\n\
                 fn serialize(&self) -> ::serde::Value {{\nmatch self {{\n{arms}}}\n}}\n}}\n"
            ));
        }
    }
    body
}

fn gen_deserialize(item: &Item) -> String {
    let mut body = String::new();
    match item {
        Item::Struct { name, fields } => {
            let expr = match fields {
                Fields::Named(fs) => {
                    let mut s = format!(
                        "let __obj = __v.as_object().ok_or_else(|| \
                         ::serde::Error::msg(\"expected object for `{name}`\"))?;\n\
                         ::std::result::Result::Ok({name} {{\n"
                    );
                    for f in fs {
                        s.push_str(&format!(
                            "{}: {},\n",
                            f.name,
                            de_field_expr(f, &format!("__obj.field(\"{}\")?", f.name))
                        ));
                    }
                    s.push_str("})");
                    s
                }
                Fields::Tuple(1) => format!(
                    "::std::result::Result::Ok({name}(::serde::Deserialize::deserialize(__v)?))"
                ),
                Fields::Tuple(n) => {
                    let items: Vec<String> = (0..*n)
                        .map(|i| format!("::serde::Deserialize::deserialize(&__arr[{i}])?"))
                        .collect();
                    format!(
                        "let __arr = __v.as_array().ok_or_else(|| \
                         ::serde::Error::msg(\"expected array for `{name}`\"))?;\n\
                         if __arr.len() != {n} {{\n\
                         return ::std::result::Result::Err(::serde::Error::msg(\
                         \"wrong tuple length for `{name}`\"));\n}}\n\
                         ::std::result::Result::Ok({name}({}))",
                        items.join(", ")
                    )
                }
                Fields::Unit => format!("::std::result::Result::Ok({name})"),
            };
            body.push_str(&format!(
                "impl ::serde::Deserialize for {name} {{\n\
                 fn deserialize(__v: &::serde::Value) -> \
                 ::std::result::Result<Self, ::serde::Error> {{\n{expr}\n}}\n}}\n"
            ));
        }
        Item::Enum { name, variants } => {
            let mut unit_arms = String::new();
            for v in variants {
                if matches!(v.fields, Fields::Unit) {
                    unit_arms.push_str(&format!(
                        "\"{vn}\" => ::std::result::Result::Ok({name}::{vn}),\n",
                        vn = v.name
                    ));
                }
            }
            let mut tagged_arms = String::new();
            for v in variants {
                let vn = &v.name;
                match &v.fields {
                    Fields::Unit => {}
                    Fields::Tuple(1) => tagged_arms.push_str(&format!(
                        "\"{vn}\" => ::std::result::Result::Ok({name}::{vn}(\
                         ::serde::Deserialize::deserialize(__inner)?)),\n"
                    )),
                    Fields::Tuple(n) => {
                        let items: Vec<String> = (0..*n)
                            .map(|i| format!("::serde::Deserialize::deserialize(&__arr[{i}])?"))
                            .collect();
                        tagged_arms.push_str(&format!(
                            "\"{vn}\" => {{\n\
                             let __arr = __inner.as_array().ok_or_else(|| \
                             ::serde::Error::msg(\"expected array for variant `{vn}`\"))?;\n\
                             if __arr.len() != {n} {{\n\
                             return ::std::result::Result::Err(::serde::Error::msg(\
                             \"wrong arity for variant `{vn}`\"));\n}}\n\
                             ::std::result::Result::Ok({name}::{vn}({}))\n}}\n",
                            items.join(", ")
                        ));
                    }
                    Fields::Named(fs) => {
                        let mut inner = format!(
                            "let __obj = __inner.as_object().ok_or_else(|| \
                             ::serde::Error::msg(\"expected object for variant `{vn}`\"))?;\n\
                             ::std::result::Result::Ok({name}::{vn} {{\n"
                        );
                        for f in fs {
                            inner.push_str(&format!(
                                "{}: {},\n",
                                f.name,
                                de_field_expr(f, &format!("__obj.field(\"{}\")?", f.name))
                            ));
                        }
                        inner.push_str("})");
                        tagged_arms.push_str(&format!("\"{vn}\" => {{\n{inner}\n}}\n"));
                    }
                }
            }
            // `__inner` must not be bound when no variant consumes it
            // (unit-only enums), or the expansion trips -D warnings.
            let tagged_section = if tagged_arms.is_empty() {
                format!(
                    "let (__tag, _) = __v.as_tagged().ok_or_else(|| \
                     ::serde::Error::msg(\"expected externally-tagged variant for `{name}`\"))?;\n\
                     ::std::result::Result::Err(::serde::Error::msg(::std::format!(\
                     \"unknown variant `{{__tag}}` of `{name}`\")))"
                )
            } else {
                format!(
                    "let (__tag, __inner) = __v.as_tagged().ok_or_else(|| \
                     ::serde::Error::msg(\"expected externally-tagged variant for `{name}`\"))?;\n\
                     match __tag {{\n{tagged_arms}\
                     _ => ::std::result::Result::Err(::serde::Error::msg(::std::format!(\
                     \"unknown variant `{{__tag}}` of `{name}`\"))),\n}}"
                )
            };
            body.push_str(&format!(
                "impl ::serde::Deserialize for {name} {{\n\
                 fn deserialize(__v: &::serde::Value) -> \
                 ::std::result::Result<Self, ::serde::Error> {{\n\
                 if let ::std::option::Option::Some(__s) = __v.as_str() {{\n\
                 return match __s {{\n{unit_arms}\
                 _ => ::std::result::Result::Err(::serde::Error::msg(::std::format!(\
                 \"unknown variant `{{__s}}` of `{name}`\"))),\n}};\n}}\n\
                 {tagged_section}\n}}\n}}\n"
            ));
        }
    }
    body
}
