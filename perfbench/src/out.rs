//! A minimal JSON object writer (the workspace has no serializer that
//! works offline).

/// A JSON object under construction.
#[derive(Default)]
pub struct Obj {
    fields: Vec<String>,
}

/// A finite number as JSON; non-finite values become `null`.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

impl Obj {
    fn raw(&mut self, key: &str, value: String) {
        self.fields.push(format!("{}: {value}", string(key)));
    }

    pub fn str(&mut self, key: &str, value: &str) {
        self.raw(key, string(value));
    }

    pub fn int(&mut self, key: &str, value: u64) {
        self.raw(key, value.to_string());
    }

    pub fn num(&mut self, key: &str, value: f64) {
        self.raw(key, number(value));
    }

    pub fn bool(&mut self, key: &str, value: bool) {
        self.raw(key, value.to_string());
    }

    pub fn nums(&mut self, key: &str, values: &[f64]) {
        let items: Vec<String> = values.iter().map(|&v| number(v)).collect();
        self.raw(key, format!("[{}]", items.join(", ")));
    }

    pub fn strs(&mut self, key: &str, values: &[String]) {
        let items: Vec<String> = values.iter().map(|v| string(v)).collect();
        self.raw(key, format!("[{}]", items.join(", ")));
    }

    pub fn obj(&mut self, key: &str, value: Obj) {
        self.raw(key, value.finish());
    }

    pub fn finish(self) -> String {
        format!("{{{}}}", self.fields.join(", "))
    }
}
