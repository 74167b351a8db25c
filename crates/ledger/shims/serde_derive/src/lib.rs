//! Std-only stand-in for `serde_derive`.
//!
//! Parses the item with `proc_macro` alone (no syn/quote) and emits
//! impls of the serde stand-in's value-tree traits. Supported: structs
//! (named, tuple, unit) and enums (externally or internally tagged)
//! without generics, with the attributes this workspace uses:
//! `default`, `default = "path"`, `skip_serializing_if = "path"`,
//! `rename = "name"`, `rename_all = "..."`, `tag = "..."`,
//! `into = "Type"` / `try_from = "Type"`. Anything else is a compile
//! error naming the attribute, never a silent difference.

use proc_macro::{Delimiter, Group, TokenStream, TokenTree};

#[derive(Default)]
struct SerdeAttrs {
    /// `key` or `key = "value"` pairs from every `#[serde(...)]`.
    pairs: Vec<(String, Option<String>)>,
}

impl SerdeAttrs {
    fn get(&self, key: &str) -> Option<&str> {
        self.pairs
            .iter()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| v.as_deref())
    }
    fn has(&self, key: &str) -> bool {
        self.pairs.iter().any(|(k, _)| k == key)
    }
    fn check(&self, allowed: &[&str], what: &str) {
        for (k, _) in &self.pairs {
            assert!(
                allowed.contains(&k.as_str()),
                "serde stand-in: unsupported {what} attribute `{k}`"
            );
        }
    }
}

struct Field {
    /// Rust field name (named fields only).
    ident: String,
    attrs: SerdeAttrs,
}

enum Fields {
    Named(Vec<Field>),
    Tuple(usize),
    Unit,
}

struct Variant {
    ident: String,
    attrs: SerdeAttrs,
    fields: Fields,
}

enum Body {
    Struct(Fields),
    Enum(Vec<Variant>),
}

struct Item {
    name: String,
    attrs: SerdeAttrs,
    body: Body,
}

type Tokens = std::iter::Peekable<proc_macro::token_stream::IntoIter>;

fn unquote(lit: &str) -> String {
    let inner = lit.strip_prefix('"').and_then(|s| s.strip_suffix('"'));
    inner
        .unwrap_or_else(|| panic!("serde stand-in: expected a string literal, got {lit}"))
        .to_string()
}

/// Fold the contents of one `#[serde(...)]` group into `out`.
fn parse_serde_args(group: &Group, out: &mut SerdeAttrs) {
    let mut it = group.stream().into_iter().peekable();
    while let Some(tt) = it.next() {
        let TokenTree::Ident(key) = tt else { continue };
        let mut value = None;
        if matches!(it.peek(), Some(TokenTree::Punct(p)) if p.as_char() == '=') {
            it.next();
            match it.next() {
                Some(TokenTree::Literal(l)) => value = Some(unquote(&l.to_string())),
                other => {
                    panic!("serde stand-in: expected a literal after `{key} =`, got {other:?}")
                }
            }
        }
        out.pairs.push((key.to_string(), value));
    }
}

/// Consume leading `#[...]` attributes, keeping the `serde` ones.
fn take_attrs(it: &mut Tokens) -> SerdeAttrs {
    let mut attrs = SerdeAttrs::default();
    while matches!(it.peek(), Some(TokenTree::Punct(p)) if p.as_char() == '#') {
        it.next();
        let Some(TokenTree::Group(g)) = it.next() else {
            panic!("serde stand-in: malformed attribute")
        };
        let mut inner = g.stream().into_iter();
        if matches!(inner.next(), Some(TokenTree::Ident(i)) if i.to_string() == "serde") {
            if let Some(TokenTree::Group(args)) = inner.next() {
                parse_serde_args(&args, &mut attrs);
            }
        }
    }
    attrs
}

/// Consume `pub`, `pub(crate)`, `pub(in path)`.
fn skip_visibility(it: &mut Tokens) {
    if matches!(it.peek(), Some(TokenTree::Ident(i)) if i.to_string() == "pub") {
        it.next();
        if matches!(it.peek(), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
        {
            it.next();
        }
    }
}

/// Consume tokens up to and including the next `,` outside `<...>`.
/// Returns whether anything was consumed before it.
fn skip_to_comma(it: &mut Tokens) -> bool {
    let mut depth = 0i32;
    let mut any = false;
    let mut prev_dash = false;
    for tt in it.by_ref() {
        if let TokenTree::Punct(p) = &tt {
            match p.as_char() {
                '<' => depth += 1,
                // `->` in a fn type is not a closing bracket.
                '>' if !prev_dash => depth -= 1,
                ',' if depth == 0 => return any,
                _ => {}
            }
            prev_dash = p.as_char() == '-';
        } else {
            prev_dash = false;
        }
        any = true;
    }
    any
}

fn parse_named_fields(group: &Group) -> Vec<Field> {
    let mut it = group.stream().into_iter().peekable();
    let mut fields = Vec::new();
    loop {
        let attrs = take_attrs(&mut it);
        skip_visibility(&mut it);
        let Some(TokenTree::Ident(ident)) = it.next() else {
            break;
        };
        attrs.check(&["default", "skip_serializing_if", "rename"], "field");
        fields.push(Field {
            ident: ident.to_string().trim_start_matches("r#").to_string(),
            attrs,
        });
        skip_to_comma(&mut it); // `: Type,`
    }
    fields
}

fn count_tuple_fields(group: &Group) -> usize {
    let mut it = group.stream().into_iter().peekable();
    let mut n = 0;
    while it.peek().is_some() {
        if skip_to_comma(&mut it) {
            n += 1;
        }
    }
    n
}

fn parse_fields_after_name(it: &mut Tokens) -> Fields {
    match it.peek() {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
            let f = Fields::Named(parse_named_fields(g));
            it.next();
            f
        }
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
            let f = Fields::Tuple(count_tuple_fields(g));
            it.next();
            f
        }
        _ => Fields::Unit,
    }
}

fn parse_variants(group: &Group) -> Vec<Variant> {
    let mut it = group.stream().into_iter().peekable();
    let mut variants = Vec::new();
    loop {
        let attrs = take_attrs(&mut it);
        let Some(TokenTree::Ident(ident)) = it.next() else {
            break;
        };
        attrs.check(&["rename"], "variant");
        let fields = parse_fields_after_name(&mut it);
        skip_to_comma(&mut it); // optional `= discriminant`, then `,`
        variants.push(Variant {
            ident: ident.to_string(),
            attrs,
            fields,
        });
    }
    variants
}

fn parse_item(input: TokenStream) -> Item {
    let mut it = input.into_iter().peekable();
    let attrs = take_attrs(&mut it);
    skip_visibility(&mut it);
    let kind = match it.next() {
        Some(TokenTree::Ident(i)) => i.to_string(),
        other => panic!("serde stand-in: expected `struct` or `enum`, got {other:?}"),
    };
    let Some(TokenTree::Ident(name)) = it.next() else {
        panic!("serde stand-in: expected the type name")
    };
    let name = name.to_string();
    if matches!(it.peek(), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        panic!("serde stand-in: generic type `{name}` is not supported");
    }
    attrs.check(
        &[
            "rename_all",
            "tag",
            "into",
            "try_from",
            "deny_unknown_fields",
        ],
        "container",
    );
    let body = match kind.as_str() {
        "struct" => Body::Struct(parse_fields_after_name(&mut it)),
        "enum" => match it.next() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Body::Enum(parse_variants(&g))
            }
            other => panic!("serde stand-in: expected enum body, got {other:?}"),
        },
        other => panic!("serde stand-in: cannot derive for `{other}`"),
    };
    Item { name, attrs, body }
}

/// Split `FooBar` / `foo_bar` into lowercase words.
fn words(ident: &str) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    for part in ident.split('_').filter(|p| !p.is_empty()) {
        let mut cur = String::new();
        for c in part.chars() {
            if c.is_uppercase() && !cur.is_empty() {
                out.push(std::mem::take(&mut cur));
            }
            cur.extend(c.to_lowercase());
        }
        out.push(cur);
    }
    out
}

fn capitalize(w: &str) -> String {
    let mut c = w.chars();
    c.next()
        .map_or_else(String::new, |f| f.to_uppercase().chain(c).collect())
}

fn apply_rename_all(rule: Option<&str>, ident: &str) -> String {
    let Some(rule) = rule else {
        return ident.to_string();
    };
    let w = words(ident);
    match rule {
        "lowercase" => w.concat(),
        "UPPERCASE" => w.concat().to_uppercase(),
        "snake_case" => w.join("_"),
        "SCREAMING_SNAKE_CASE" => w.join("_").to_uppercase(),
        "kebab-case" => w.join("-"),
        "PascalCase" => w.iter().map(|x| capitalize(x)).collect(),
        "camelCase" => {
            let mut s = w[0].clone();
            s.extend(w[1..].iter().map(|x| capitalize(x)));
            s
        }
        other => panic!("serde stand-in: unsupported rename_all = \"{other}\""),
    }
}

fn wire_name(attrs: &SerdeAttrs, rule: Option<&str>, ident: &str) -> String {
    attrs
        .get("rename")
        .map_or_else(|| apply_rename_all(rule, ident), str::to_string)
}

const P: &str = "::serde::__private";

/// Statements inserting each named field of `access`-prefixed places
/// into the map `m`.
fn ser_named(fields: &[Field], rule: Option<&str>, access: &str) -> String {
    let mut s = String::new();
    for f in fields {
        let key = wire_name(&f.attrs, rule, &f.ident);
        let place = format!("{access}{}", f.ident);
        let insert =
            format!("m.insert(\"{key}\".to_string(), {P}::Serialize::to_json_value(&{place}));");
        match f.attrs.get("skip_serializing_if") {
            Some(pred) => s.push_str(&format!("if !{pred}(&{place}) {{ {insert} }}\n")),
            None => s.push_str(&format!("{insert}\n")),
        }
    }
    s
}

/// `ident: <read from map m>,` for each named field.
fn de_named(fields: &[Field], rule: Option<&str>, container: &str) -> String {
    let mut s = String::new();
    for f in fields {
        let key = wire_name(&f.attrs, rule, &f.ident);
        let read = if f.attrs.has("default") {
            let default = f
                .attrs
                .get("default")
                .unwrap_or("::core::default::Default::default");
            format!("{P}::field_or(m, \"{container}\", \"{key}\", {default})?")
        } else {
            format!("{P}::field(m, \"{container}\", \"{key}\")?")
        };
        s.push_str(&format!("{}: {read},\n", f.ident));
    }
    s
}

fn binders(n: usize) -> Vec<String> {
    (0..n).map(|i| format!("f{i}")).collect()
}

fn gen_serialize(item: &Item) -> String {
    let name = &item.name;
    let body = if let Some(into) = item.attrs.get("into") {
        format!(
            "let via: {into} = ::core::convert::Into::into(::core::clone::Clone::clone(self));\n\
             {P}::Serialize::to_json_value(&via)"
        )
    } else {
        match &item.body {
            Body::Struct(Fields::Named(fields)) => format!(
                "let mut m = {P}::Map::new();\n{}{P}::Value::Object(m)",
                ser_named(fields, item.attrs.get("rename_all"), "self.")
            ),
            Body::Struct(Fields::Tuple(1)) => format!("{P}::Serialize::to_json_value(&self.0)"),
            Body::Struct(Fields::Tuple(n)) => {
                let elems: Vec<String> = (0..*n)
                    .map(|i| format!("{P}::Serialize::to_json_value(&self.{i})"))
                    .collect();
                format!("{P}::Value::Array(vec![{}])", elems.join(", "))
            }
            Body::Struct(Fields::Unit) => format!("{P}::Value::Null"),
            Body::Enum(variants) => {
                let rule = item.attrs.get("rename_all");
                let tag = item.attrs.get("tag");
                let mut arms = String::new();
                for v in variants {
                    let wire = wire_name(&v.attrs, rule, &v.ident);
                    let vi = &v.ident;
                    let arm = match (&v.fields, tag) {
                        (Fields::Unit, None) => {
                            format!("{name}::{vi} => {P}::Value::String(\"{wire}\".to_string()),")
                        }
                        (Fields::Unit, Some(t)) => {
                            format!("{name}::{vi} => {P}::tagged({P}::Value::Null, \"{t}\", \"{wire}\"),")
                        }
                        (Fields::Tuple(n), _) => {
                            let b = binders(*n);
                            let payload = if *n == 1 {
                                format!("{P}::Serialize::to_json_value(f0)")
                            } else {
                                assert!(
                                    tag.is_none(),
                                    "serde stand-in: tuple variant in a tagged enum"
                                );
                                let elems: Vec<String> = b
                                    .iter()
                                    .map(|x| format!("{P}::Serialize::to_json_value({x})"))
                                    .collect();
                                format!("{P}::Value::Array(vec![{}])", elems.join(", "))
                            };
                            let value = match tag {
                                Some(t) => format!("{P}::tagged({payload}, \"{t}\", \"{wire}\")"),
                                None => format!(
                                    "{{ let mut o = {P}::Map::new(); o.insert(\"{wire}\".to_string(), {payload}); {P}::Value::Object(o) }}"
                                ),
                            };
                            format!("{name}::{vi}({}) => {value},", b.join(", "))
                        }
                        (Fields::Named(fields), _) => {
                            let names: Vec<&str> =
                                fields.iter().map(|f| f.ident.as_str()).collect();
                            let fill = ser_named(fields, None, "*");
                            let value = match tag {
                                Some(t) => format!("{P}::tagged({P}::Value::Object(m), \"{t}\", \"{wire}\")"),
                                None => format!(
                                    "{{ let mut o = {P}::Map::new(); o.insert(\"{wire}\".to_string(), {P}::Value::Object(m)); {P}::Value::Object(o) }}"
                                ),
                            };
                            format!(
                                "{name}::{vi} {{ {} }} => {{ let mut m = {P}::Map::new();\n{fill}{value} }}",
                                names.join(", ")
                            )
                        }
                    };
                    arms.push_str(&arm);
                    arms.push('\n');
                }
                format!("match self {{\n{arms}}}")
            }
        }
    };
    format!(
        "#[automatically_derived]\nimpl {P}::Serialize for {name} {{\n\
         fn to_json_value(&self) -> {P}::Value {{\n{body}\n}}\n}}"
    )
}

fn gen_deserialize(item: &Item) -> String {
    let name = &item.name;
    let body = if let Some(from) = item.attrs.get("try_from") {
        format!(
            "let via: {from} = {P}::Deserialize::from_json_value(v)?;\n\
             <{name} as ::core::convert::TryFrom<{from}>>::try_from(via).map_err({P}::Error::custom)"
        )
    } else {
        match &item.body {
            Body::Struct(Fields::Named(fields)) => format!(
                "let m = {P}::as_object(v, \"{name}\")?;\nOk({name} {{\n{}}})",
                de_named(fields, item.attrs.get("rename_all"), name)
            ),
            Body::Struct(Fields::Tuple(1)) => {
                format!("Ok({name}({P}::Deserialize::from_json_value(v)?))")
            }
            Body::Struct(Fields::Tuple(n)) => {
                let elems: Vec<String> = (0..*n)
                    .map(|i| format!("{P}::Deserialize::from_json_value(&a[{i}])?"))
                    .collect();
                format!(
                    "match v {{ {P}::Value::Array(a) if a.len() == {n} => Ok({name}({})),\n\
                     _ => Err({P}::Error::custom(\"{name}: expected an array of length {n}\")) }}",
                    elems.join(", ")
                )
            }
            Body::Struct(Fields::Unit) => format!("Ok({name})"),
            Body::Enum(variants) => {
                let rule = item.attrs.get("rename_all");
                let mut arms = String::new();
                if let Some(tag) = item.attrs.get("tag") {
                    for v in variants {
                        let wire = wire_name(&v.attrs, rule, &v.ident);
                        let vi = &v.ident;
                        let build = match &v.fields {
                            Fields::Unit => format!("Ok({name}::{vi})"),
                            Fields::Tuple(1) => {
                                format!("Ok({name}::{vi}({P}::Deserialize::from_json_value(v)?))")
                            }
                            Fields::Tuple(_) => {
                                panic!("serde stand-in: tuple variant in a tagged enum")
                            }
                            Fields::Named(fields) => {
                                format!(
                                    "Ok({name}::{vi} {{\n{}}})",
                                    de_named(fields, None, &format!("{name}::{vi}"))
                                )
                            }
                        };
                        arms.push_str(&format!("\"{wire}\" => {build},\n"));
                    }
                    format!(
                        "let m = {P}::as_object(v, \"{name}\")?;\n\
                         match {P}::tag(m, \"{name}\", \"{tag}\")? {{\n{arms}\
                         other => Err({P}::unknown_variant(\"{name}\", other)),\n}}"
                    )
                } else {
                    for v in variants {
                        let wire = wire_name(&v.attrs, rule, &v.ident);
                        let vi = &v.ident;
                        let ctx = format!("{name}::{vi}");
                        let need = format!(
                            "let p = payload.ok_or_else(|| {P}::Error::custom(\"{ctx}: missing variant payload\"))?;"
                        );
                        let build = match &v.fields {
                            Fields::Unit => format!("Ok({name}::{vi})"),
                            Fields::Tuple(1) => {
                                format!("{{ {need} Ok({name}::{vi}({P}::Deserialize::from_json_value(p)?)) }}")
                            }
                            Fields::Tuple(n) => {
                                let elems: Vec<String> = (0..*n)
                                    .map(|i| format!("{P}::Deserialize::from_json_value(&a[{i}])?"))
                                    .collect();
                                format!(
                                    "{{ {need} match p {{ {P}::Value::Array(a) if a.len() == {n} => Ok({name}::{vi}({})),\n\
                                     _ => Err({P}::Error::custom(\"{ctx}: expected an array of length {n}\")) }} }}",
                                    elems.join(", ")
                                )
                            }
                            Fields::Named(fields) => format!(
                                "{{ {need} let m = {P}::as_object(p, \"{ctx}\")?; Ok({name}::{vi} {{\n{}}}) }}",
                                de_named(fields, None, &ctx)
                            ),
                        };
                        arms.push_str(&format!("\"{wire}\" => {build},\n"));
                    }
                    format!(
                        "let (variant, payload) = {P}::variant(v, \"{name}\")?;\n\
                         let _ = &payload;\n\
                         match variant {{\n{arms}\
                         other => Err({P}::unknown_variant(\"{name}\", other)),\n}}"
                    )
                }
            }
        }
    };
    format!(
        "#[automatically_derived]\nimpl<'de> {P}::Deserialize<'de> for {name} {{\n\
         fn from_json_value(v: &{P}::Value) -> ::core::result::Result<Self, {P}::Error> {{\n{body}\n}}\n}}"
    )
}

/// `#[derive(Serialize)]`
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    gen_serialize(&parse_item(input))
        .parse()
        .expect("serde stand-in: generated Serialize impl must parse")
}

/// `#[derive(Deserialize)]`
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    gen_deserialize(&parse_item(input))
        .parse()
        .expect("serde stand-in: generated Deserialize impl must parse")
}
