//! Spans recorded around calls into the layers' public functions.
//!
//! A span is `{id, parent, name, start_ns, end_ns, attrs}`; spans are
//! kept in memory and written out when the run ends. A span's self time
//! is its duration minus the part of it its child spans cover.

use serde::json::Value;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub attrs: Vec<(String, Value)>,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }

    /// An unsigned attribute (0 when absent).
    pub fn count(&self, key: &str) -> u64 {
        self.attrs
            .iter()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| match v {
                Value::UInt(n) => Some(*n),
                _ => None,
            })
            .unwrap_or(0)
    }
}

/// A single-threaded span recorder.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    last_closed: Option<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            last_closed: None,
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`; spans `f` opens nest under it.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Self) -> R) -> R {
        let idx = self.spans.len();
        let parent = self.open.last().map(|&i| self.spans[i].id);
        self.spans.push(Span {
            id: idx as u64,
            parent,
            name: name.to_string(),
            start_ns: 0,
            end_ns: 0,
            attrs: Vec::new(),
        });
        self.open.push(idx);
        self.spans[idx].start_ns = self.now_ns();
        let r = f(self);
        self.spans[idx].end_ns = self.now_ns();
        self.open.pop();
        self.last_closed = Some(idx);
        r
    }

    /// Attach an attribute to the span that closed last.
    pub fn tag(&mut self, key: &str, value: impl serde::Serialize) {
        if let Some(i) = self.last_closed {
            self.spans[i]
                .attrs
                .push((key.to_string(), value.to_value()));
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span, indexed like `spans` (ids are indices).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut t: Vec<f64> = spans.iter().map(Span::secs).collect();
    for s in spans {
        if let Some(p) = s.parent {
            t[p as usize] -= s.secs();
        }
    }
    t
}

/// Whether span `i` lies inside the subtree rooted at a span named `root`.
pub fn under(spans: &[Span], mut i: usize, root: &str) -> bool {
    loop {
        if spans[i].name == root {
            return true;
        }
        match spans[i].parent {
            Some(p) => i = p as usize,
            None => return false,
        }
    }
}

pub fn to_value(s: &Span, pass: usize, id_offset: u64) -> Value {
    let mut attrs = s.attrs.clone();
    attrs.push(("pass".to_string(), Value::UInt(pass as u64)));
    Value::Object(vec![
        ("id".into(), Value::UInt(s.id + id_offset)),
        (
            "parent".into(),
            s.parent.map_or(Value::Null, |p| Value::UInt(p + id_offset)),
        ),
        ("name".into(), Value::Str(s.name.clone())),
        ("start_ns".into(), Value::UInt(s.start_ns)),
        ("end_ns".into(), Value::UInt(s.end_ns)),
        ("attrs".into(), Value::Object(attrs)),
    ])
}

pub fn from_value(v: &Value) -> Option<Span> {
    let uint = |k: &str| match v.get(k)? {
        Value::UInt(n) => Some(*n),
        _ => None,
    };
    Some(Span {
        id: uint("id")?,
        parent: uint("parent"),
        name: v.get("name")?.as_str()?.to_string(),
        start_ns: uint("start_ns")?,
        end_ns: uint("end_ns")?,
        attrs: match v.get("attrs")? {
            Value::Object(a) => a.clone(),
            _ => Vec::new(),
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::default();
        t.span("root", |t| {
            t.span("a", |_| {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
            t.tag("n", 3u64);
            t.span("b", |_| {
                std::thread::sleep(std::time::Duration::from_millis(10))
            });
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].count("n"), 3);
        let st = self_times(spans);
        assert!(st[0] >= 0.0 && st[0] < spans[0].secs() - 0.029, "{st:?}");
        assert!((st[0] + st[1] + st[2] - spans[0].secs()).abs() < 1e-9);
        assert!(under(spans, 2, "root") && !under(spans, 0, "a"));
        let back = from_value(&to_value(&spans[1], 4, 10)).unwrap();
        assert_eq!((back.id, back.parent), (11, Some(10)));
        assert_eq!(back.count("pass"), 4);
    }
}
