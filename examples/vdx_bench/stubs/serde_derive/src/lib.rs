//! Derives for the `serde` stand-in: an empty marker impl per type. The
//! vdx crates derive only on types without generic parameters, so the type
//! name is all that is read from the item.

use proc_macro::{TokenStream, TokenTree};

/// The identifier after the item's `struct` or `enum` keyword.
fn type_name(item: TokenStream) -> String {
    let mut tokens = item.into_iter();
    while let Some(token) = tokens.next() {
        if let TokenTree::Ident(ident) = &token {
            let word = ident.to_string();
            if word == "struct" || word == "enum" {
                if let Some(TokenTree::Ident(name)) = tokens.next() {
                    return name.to_string();
                }
            }
        }
    }
    panic!("serde stand-in derive: expected a struct or an enum");
}

/// Emits `impl serde::Serialize for T {}`.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(item: TokenStream) -> TokenStream {
    format!("impl ::serde::Serialize for {} {{}}", type_name(item))
        .parse()
        .expect("valid impl")
}

/// Emits `impl<'de> serde::Deserialize<'de> for T {}`.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(item: TokenStream) -> TokenStream {
    format!("impl<'de> ::serde::Deserialize<'de> for {} {{}}", type_name(item))
        .parse()
        .expect("valid impl")
}
