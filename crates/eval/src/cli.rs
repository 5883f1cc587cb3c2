//! One flag parser for every binary in the workspace.
//!
//! A command declares its flags as a table — each entry names a flag and
//! says where its value goes and how it is checked — and [`Flags::parse`]
//! walks the arguments once against that table. Every usage error takes
//! one shape: `error: <msg>` on stderr and exit status 2
//! ([`usage_error`]).
//!
//! [`ClassFlags`] is the one definition of the ClaSS flags `--window`,
//! `--width`, `--wss`, `--alpha` and `--jump` — the few parameters the
//! paper leaves to the user (§3, §4.4). It validates them while parsing
//! and builds the [`ClassConfig`] a command runs with.
//!
//! ```
//! use eval::cli::{ClassFlags, Flags};
//!
//! let mut class = ClassFlags::live();
//! let mut tsv = false;
//! class
//!     .define(Flags::new())
//!     .choice("--format", [("text", false), ("tsv", true)], &mut tsv)
//!     .parse(["--window", "2000", "--format", "tsv"])
//!     .unwrap();
//! assert!(tsv);
//! assert_eq!(class.config().window_size, 2000);
//! ```

use class_core::class::MIN_WINDOW_SIZE;
use class_core::{ClassConfig, WidthSelection, WssMethod};
use std::str::FromStr;

/// Prints `error: <msg>` on stderr and exits with status 2.
pub fn usage_error(msg: impl std::fmt::Display) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2)
}

type Setter<'a> = Box<dyn FnMut(&str) -> Result<(), String> + 'a>;

enum Action<'a> {
    Switch(&'a mut bool),
    Value(Setter<'a>),
}

/// A command's flag table. Each builder method adds one flag and the
/// place its value goes; [`Flags::parse`] consumes the table.
#[derive(Default)]
pub struct Flags<'a> {
    table: Vec<(&'static str, Action<'a>)>,
    positionals: Option<&'a mut Vec<String>>,
    help: Option<&'static str>,
}

fn parse_value<T: FromStr>(name: &str, v: &str) -> Result<T, String> {
    v.parse()
        .map_err(|_| format!("expected a numeric {name}, got {v:?}"))
}

impl<'a> Flags<'a> {
    /// An empty table: every argument is an unknown-flag error.
    pub fn new() -> Self {
        Self::default()
    }

    /// `--help` and `-h` print `text` on stdout and exit with status 0.
    pub fn help(mut self, text: &'static str) -> Self {
        self.help = Some(text);
        self
    }

    /// Arguments not starting with `--` are collected into `target`
    /// instead of being rejected.
    pub fn positionals(mut self, target: &'a mut Vec<String>) -> Self {
        self.positionals = Some(target);
        self
    }

    /// A flag without a value that sets `target`.
    pub fn switch(mut self, name: &'static str, target: &'a mut bool) -> Self {
        self.table.push((name, Action::Switch(target)));
        self
    }

    /// A flag whose value goes through `set`; an `Err` from it is the
    /// usage error's message.
    pub fn value(
        mut self,
        name: &'static str,
        set: impl FnMut(&str) -> Result<(), String> + 'a,
    ) -> Self {
        self.table.push((name, Action::Value(Box::new(set))));
        self
    }

    /// A flag parsed with [`FromStr`] into `target` (numbers and strings).
    pub fn parsed<T: FromStr + 'a>(self, name: &'static str, target: &'a mut T) -> Self {
        self.value(name, move |v| {
            *target = parse_value(name, v)?;
            Ok(())
        })
    }

    /// Like [`Flags::parsed`], for a flag without a default.
    pub fn optional<T: FromStr + 'a>(self, name: &'static str, target: &'a mut Option<T>) -> Self {
        self.value(name, move |v| {
            *target = Some(parse_value(name, v)?);
            Ok(())
        })
    }

    /// A count flag that must be at least `min`.
    pub fn at_least(self, name: &'static str, min: usize, target: &'a mut usize) -> Self {
        self.value(name, move |v| {
            *target = parse_at_least(name, min, v)?;
            Ok(())
        })
    }

    /// Like [`Flags::at_least`], for a flag without a default.
    pub fn optional_at_least(
        self,
        name: &'static str,
        min: usize,
        target: &'a mut Option<usize>,
    ) -> Self {
        self.value(name, move |v| {
            *target = Some(parse_at_least(name, min, v)?);
            Ok(())
        })
    }

    /// A finite, strictly positive number (a rate or a duration).
    pub fn positive(self, name: &'static str, target: &'a mut Option<f64>) -> Self {
        self.value(name, move |v| {
            let x: f64 = parse_value(name, v)?;
            if !(x > 0.0 && x.is_finite()) {
                return Err(format!("{name} must be a positive number, got {x}"));
            }
            *target = Some(x);
            Ok(())
        })
    }

    /// Exactly one character (a delimiter).
    pub fn character(self, name: &'static str, target: &'a mut char) -> Self {
        self.value(name, move |v| {
            *target = v
                .parse()
                .map_err(|_| format!("{name} must be exactly one character, got {v:?}"))?;
            Ok(())
        })
    }

    /// One of a fixed set of named values.
    pub fn choice<T: Clone + 'a>(
        self,
        name: &'static str,
        choices: impl IntoIterator<Item = (&'static str, T)>,
        target: &'a mut T,
    ) -> Self {
        let choices: Vec<(&'static str, T)> = choices.into_iter().collect();
        self.value(name, move |v| {
            let (_, value) = choices.iter().find(|(key, _)| *key == v).ok_or_else(|| {
                let names: Vec<&str> = choices.iter().map(|(key, _)| *key).collect();
                format!("{name} must be {}, got {v:?}", names.join("|"))
            })?;
            *target = value.clone();
            Ok(())
        })
    }

    /// Walks `args` against the table; `Err` holds the usage error's
    /// message. Later occurrences of a flag override earlier ones.
    pub fn parse(mut self, args: impl IntoIterator<Item = impl AsRef<str>>) -> Result<(), String> {
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            let arg = arg.as_ref();
            if let (Some(text), "--help" | "-h") = (self.help, arg) {
                print!("{text}");
                std::process::exit(0);
            }
            match self.table.iter_mut().find(|(name, _)| *name == arg) {
                Some((_, Action::Switch(on))) => **on = true,
                Some((name, Action::Value(set))) => {
                    let v = it
                        .next()
                        .ok_or_else(|| format!("{name} requires a value"))?;
                    set(v.as_ref())?;
                }
                None => match &mut self.positionals {
                    Some(rest) if !arg.starts_with("--") => rest.push(arg.to_string()),
                    _ => return Err(format!("unknown argument {arg}")),
                },
            }
        }
        Ok(())
    }

    /// [`Flags::parse`], ending the process with [`usage_error`] on a
    /// usage error.
    pub fn parse_or_exit(self, args: impl IntoIterator<Item = impl AsRef<str>>) {
        if let Err(msg) = self.parse(args) {
            usage_error(msg);
        }
    }
}

fn parse_at_least(name: &str, min: usize, v: &str) -> Result<usize, String> {
    let n: usize = parse_value(name, v)?;
    if n < min {
        return Err(format!("{name} must be at least {min}, got {n}"));
    }
    Ok(n)
}

/// The window a live feed runs with when no `--window` is given — the
/// paper's d = 10 000 (§4.4) — and the cap on a window derived from an
/// archive file's length.
pub const DEFAULT_LIVE_WINDOW: usize = 10_000;

/// The ClaSS flags, validated while parsing: `--window` is at least
/// [`MIN_WINDOW_SIZE`], `--jump` at least 1, and `--alpha` finite and in
/// (0, 1).
#[derive(Debug)]
pub struct ClassFlags {
    /// `--window`: sliding window size `d`.
    window: Option<usize>,
    /// `--width`: a fixed subsequence width.
    width: Option<usize>,
    /// `--wss`: how to learn the width when none is fixed; `None` on
    /// commands that take the width from an annotation, which offer no
    /// `--wss` flag.
    wss: Option<WssMethod>,
    /// `--alpha`: the significance level of the split test.
    alpha: f64,
    /// `--jump`: evaluate the profile every N-th point.
    jump: Option<usize>,
}

impl ClassFlags {
    /// Flags for a live feed (stdin mode, `serve`): window
    /// [`DEFAULT_LIVE_WINDOW`], width learned with `--wss` (SuSS by
    /// default), α = 1e-50.
    pub fn live() -> Self {
        Self {
            window: None,
            width: None,
            wss: Some(WssMethod::Suss),
            alpha: 1e-50,
            jump: None,
        }
    }

    /// Flags for annotated archive files (`datasets run`): window from
    /// the series length, width from the file's annotation, α = 1e-15;
    /// no `--wss`.
    pub fn archive() -> Self {
        Self {
            wss: None,
            alpha: 1e-15,
            ..Self::live()
        }
    }

    /// Adds the ClaSS flags to `flags`.
    pub fn define<'a>(&'a mut self, flags: Flags<'a>) -> Flags<'a> {
        let alpha = &mut self.alpha;
        let flags = flags
            .optional_at_least("--window", MIN_WINDOW_SIZE, &mut self.window)
            .optional("--width", &mut self.width)
            .value("--alpha", move |v| {
                let a: f64 = parse_value("--alpha", v)?;
                if !(a > 0.0 && a < 1.0) {
                    return Err(format!("--alpha must be in (0, 1), got {a}"));
                }
                *alpha = a;
                Ok(())
            })
            .optional_at_least("--jump", 1, &mut self.jump);
        match &mut self.wss {
            Some(method) => flags.choice("--wss", WssMethod::all().map(|m| (m.name(), m)), method),
            None => flags,
        }
    }

    /// The `--alpha` significance level.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// The `--window` size; `None` when each series derives its own.
    pub fn window(&self) -> Option<usize> {
        self.window
    }

    /// The config for a live feed: `--window` or [`DEFAULT_LIVE_WINDOW`],
    /// `--width` fixed or else learned with `--wss`.
    pub fn config(&self) -> ClassConfig {
        let width = match self.width {
            Some(w) => WidthSelection::Fixed(w),
            None => WidthSelection::Learn(self.wss.unwrap_or_default()),
        };
        self.build(self.window.unwrap_or(DEFAULT_LIVE_WINDOW), width)
    }

    /// The config for an annotated series of `n_points` points with
    /// width `annotated_width`. Without `--window` the window is the
    /// series length capped at [`DEFAULT_LIVE_WINDOW`], which errs for a
    /// series shorter than [`MIN_WINDOW_SIZE`].
    pub fn config_for(
        &self,
        n_points: usize,
        annotated_width: usize,
    ) -> Result<ClassConfig, String> {
        let window = match self.window {
            Some(d) => d,
            None if n_points < MIN_WINDOW_SIZE => {
                return Err(format!(
                    "{n_points} points, shorter than the minimum window {MIN_WINDOW_SIZE}"
                ))
            }
            None => n_points.min(DEFAULT_LIVE_WINDOW),
        };
        let width = WidthSelection::Fixed(self.width.unwrap_or(annotated_width));
        Ok(self.build(window, width))
    }

    fn build(&self, window: usize, width: WidthSelection) -> ClassConfig {
        let mut cfg = ClassConfig::with_window_size(window);
        cfg.width = width;
        cfg.log10_alpha = self.alpha.log10();
        if let Some(j) = self.jump {
            cfg.jump = j;
        }
        cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn usage(r: Result<(), String>) -> String {
        r.expect_err("expected a usage error")
    }

    #[test]
    fn table_sets_each_kind_of_flag() {
        let (mut on, mut n, mut k, mut s, mut rate) = (false, 0usize, 1usize, None, None);
        let (mut c, mut pick, mut files) = (',', "a", Vec::new());
        Flags::new()
            .switch("--on", &mut on)
            .parsed("--n", &mut n)
            .at_least("--k", 1, &mut k)
            .optional::<String>("--s", &mut s)
            .positive("--rate", &mut rate)
            .character("--c", &mut c)
            .choice("--pick", [("a", "a"), ("b", "b")], &mut pick)
            .positionals(&mut files)
            .parse("--on --n 3 f1 --k 4 --s x --rate 2.5 --c ; --pick b f2 --n 5".split(' '))
            .unwrap();
        assert!(on);
        assert_eq!((n, k, s.as_deref(), rate), (5, 4, Some("x"), Some(2.5)));
        assert_eq!(
            (c, pick, files),
            (';', "b", vec!["f1".to_string(), "f2".into()])
        );
    }

    #[test]
    fn usage_errors_name_the_flag() {
        let cases: [(&[&str], &str); 9] = [
            (&["--n", "x"], "expected a numeric --n, got \"x\""),
            (&["--n"], "--n requires a value"),
            (&["--m"], "unknown argument --m"),
            (&["--help"], "unknown argument --help"),
            (&["--k", "0"], "--k must be at least 1, got 0"),
            (
                &["--rate", "inf"],
                "--rate must be a positive number, got inf",
            ),
            (
                &["--c", ";;"],
                "--c must be exactly one character, got \";;\"",
            ),
            (&["--c", ""], "--c must be exactly one character, got \"\""),
            (
                &["--format", "xml"],
                "--format must be text|tsv, got \"xml\"",
            ),
        ];
        for (args, want) in cases {
            let (mut n, mut k, mut rate, mut c, mut tsv) = (0usize, 1usize, None, ',', false);
            let flags = Flags::new()
                .parsed("--n", &mut n)
                .at_least("--k", 1, &mut k)
                .positive("--rate", &mut rate)
                .character("--c", &mut c)
                .choice("--format", [("text", false), ("tsv", true)], &mut tsv);
            assert_eq!(usage(flags.parse(args)), want, "{args:?}");
        }
    }

    #[test]
    fn class_flags_build_the_config() {
        let mut class = ClassFlags::live();
        let args = "--window 500 --wss mwf --alpha 1e-10 --jump 2".split(' ');
        class.define(Flags::new()).parse(args).unwrap();
        let cfg = class.config();
        assert_eq!(
            (cfg.window_size, cfg.log10_alpha, cfg.jump),
            (500, -10.0, 2)
        );
        assert_eq!(cfg.width, WidthSelection::Learn(WssMethod::Mwf));

        let cfg = ClassFlags::live().config();
        assert_eq!(
            (cfg.window_size, cfg.log10_alpha),
            (DEFAULT_LIVE_WINDOW, -50.0)
        );
        assert_eq!(cfg.width, WidthSelection::Learn(WssMethod::Suss));
        assert_eq!(cfg.jump, ClassConfig::default().jump);

        let archive = ClassFlags::archive();
        let cfg = archive.config_for(900, 50).unwrap();
        assert_eq!((cfg.window_size, cfg.log10_alpha), (900, -15.0));
        assert_eq!(cfg.width, WidthSelection::Fixed(50));
        let cfg = archive.config_for(20_000, 50).unwrap();
        assert_eq!(cfg.window_size, DEFAULT_LIVE_WINDOW);
        assert_eq!(
            archive.config_for(12, 4).unwrap_err(),
            "12 points, shorter than the minimum window 16"
        );
    }

    #[test]
    fn class_flags_reject_out_of_range_values() {
        for (args, want) in [
            ("--window 15", "--window must be at least 16, got 15"),
            ("--jump 0", "--jump must be at least 1, got 0"),
            ("--alpha 0", "--alpha must be in (0, 1), got 0"),
            ("--alpha nan", "--alpha must be in (0, 1), got NaN"),
            ("--alpha 1", "--alpha must be in (0, 1), got 1"),
            ("--alpha -inf", "--alpha must be in (0, 1), got -inf"),
            (
                "--wss bogus",
                "--wss must be suss|fft|acf|mwf, got \"bogus\"",
            ),
        ] {
            let mut class = ClassFlags::live();
            let got = usage(class.define(Flags::new()).parse(args.split(' ')));
            assert_eq!(got, want, "{args}");
        }
        // Annotated-archive commands take the width from the file: no --wss.
        let mut class = ClassFlags::archive();
        let got = usage(class.define(Flags::new()).parse(["--wss", "suss"]));
        assert_eq!(got, "unknown argument --wss");
    }
}
