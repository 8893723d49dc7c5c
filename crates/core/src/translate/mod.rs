//! Translators between the formalisms.
//!
//! Both translators are deliberately *partial*: where a feature of the
//! source language has no counterpart in the target, they fail with
//! [`crate::CoreError::Untranslatable`] naming the feature. Those failures
//! are data — experiment **T2** runs the canonical query suite through the
//! translators and reports exactly which arrows hold.

mod xmlgl_wglog;

pub use xmlgl_wglog::{wglog_to_xmlgl, xmlgl_to_wglog};
