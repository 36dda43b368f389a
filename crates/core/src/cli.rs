//! The one strict command-line cursor every binary of the workspace parses
//! its arguments with (`wmn-sim`, `wmn-submit`, `wmn-served`, `wmn-trace`
//! and the figure binaries).
//!
//! A binary walks [`Argv::next_arg`], pulls a flag's value with
//! [`Argv::value`] / [`Argv::parsed`] and returns the first problem as a
//! one-line `Err(String)`; `main` hands that to [`usage_error`] (exit 2).
//! Nothing is ever skipped: an unknown flag, a missing value or a value of
//! the wrong shape is an error, because a silently ignored flag runs the
//! wrong experiment and reports success.
//!
//! Every line a binary prints to stdout goes through
//! [`outln!`](crate::outln): once the reader has gone away (`wmn-sim … |
//! head -1`) the rest of stdout is dropped and the program ends with its
//! own exit code, instead of `println!`'s panic.

use std::fmt::Display;
use std::io::{ErrorKind, Write};
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, Ordering};

/// A cursor over an argument vector (program name already dropped).
#[derive(Debug)]
pub struct Argv {
    args: std::vec::IntoIter<String>,
}

impl Argv {
    /// The arguments this process was started with.
    pub fn from_env() -> Argv {
        Argv::new(std::env::args().skip(1).collect())
    }

    /// A cursor over an explicit vector (tests, re-parsing).
    pub fn new(args: Vec<String>) -> Argv {
        Argv {
            args: args.into_iter(),
        }
    }

    /// The next argument, flag or positional.
    pub fn next_arg(&mut self) -> Option<String> {
        self.args.next()
    }

    /// The value of `flag`: whatever argument comes next (a value may
    /// start with `-`, as in `--pps -1`, so no token is special here).
    pub fn value(&mut self, flag: &str) -> Result<String, String> {
        self.args
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))
    }

    /// The value of `flag`, parsed as `T`.
    pub fn parsed<T: FromStr>(&mut self, flag: &str) -> Result<T, String>
    where
        T::Err: Display,
    {
        parse(flag, &self.value(flag)?)
    }
}

/// Parse `text` as the value of `flag`.
pub fn parse<T: FromStr>(flag: &str, text: &str) -> Result<T, String>
where
    T::Err: Display,
{
    text.parse()
        .map_err(|e| format!("{flag}: bad value '{text}' ({e})"))
}

/// Parse `text` as two `T`s around `sep` (`MTBF,MTTR`, `RxC`, `T:U`).
pub fn parse_pair<T: FromStr>(flag: &str, text: &str, sep: char) -> Result<(T, T), String>
where
    T::Err: Display,
{
    let (a, b) = text
        .split_once(sep)
        .ok_or_else(|| format!("{flag}: bad value '{text}' (expected A{sep}B)"))?;
    Ok((parse(flag, a)?, parse(flag, b)?))
}

/// Refuse the command line: one line on stderr, exit code 2.
pub fn usage_error(bin: &str, msg: &str) -> ! {
    eprintln!("error: {msg} (run `{bin} --help` for usage)");
    std::process::exit(2);
}

/// Answer `--help`: the text on stdout, exit code 0 — asking for usage is
/// not an error.
pub fn help(text: &str) -> ! {
    crate::outln!("{}", text.trim_end());
    std::process::exit(0);
}

/// Print one line to stdout: `println!` for binaries, through [`write_line`].
#[macro_export]
macro_rules! outln {
    () => {
        $crate::cli::write_line(format_args!(""))
    };
    ($($arg:tt)*) => {
        $crate::cli::write_line(format_args!($($arg)*))
    };
}

/// Set once a stdout write has failed with `BrokenPipe`.
static READER_GONE: AtomicBool = AtomicBool::new(false);

/// Write `line` and a newline to stdout. Rust ignores SIGPIPE, so a write
/// to a pipe whose reader has left fails with `BrokenPipe`: from then on
/// every stdout line is dropped unwritten, and the program carries on to
/// its own exit code — a figure still writes its CSVs, an interrupted run
/// still exits 130. Any other failure (a full disk) exits 1. SIGPIPE's
/// disposition is left alone: the daemon and its client learn of a
/// vanished peer from the same error on their sockets.
pub fn write_line(line: std::fmt::Arguments) {
    if READER_GONE.load(Ordering::Relaxed) {
        return;
    }
    let written = writeln!(std::io::stdout().lock(), "{line}");
    if let Err(e) = written {
        if e.kind() == ErrorKind::BrokenPipe {
            READER_GONE.store(true, Ordering::Relaxed);
            return;
        }
        eprintln!("error: cannot write to stdout: {e}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Argv {
        Argv::new(s.split_whitespace().map(str::to_string).collect())
    }

    #[test]
    fn values_follow_their_flag_and_may_be_negative() {
        let mut a = argv("--pps -1 --csv");
        assert_eq!(a.next_arg().as_deref(), Some("--pps"));
        assert_eq!(a.parsed::<f64>("--pps"), Ok(-1.0));
        assert_eq!(a.next_arg().as_deref(), Some("--csv"));
        assert_eq!(a.next_arg(), None);
    }

    #[test]
    fn a_missing_or_misshapen_value_is_one_line() {
        assert_eq!(
            argv("").value("--seed").unwrap_err(),
            "--seed needs a value"
        );
        let e = argv("x").parsed::<u64>("--seed").unwrap_err();
        assert!(e.starts_with("--seed: bad value 'x'"), "{e}");
        assert!(!e.contains('\n'));
    }

    #[test]
    fn pairs() {
        assert_eq!(parse_pair::<f64>("--churn", "60,5", ','), Ok((60.0, 5.0)));
        assert!(parse_pair::<f64>("--churn", "60", ',').is_err());
        assert!(parse_pair::<usize>("--grid", "6x", 'x').is_err());
    }
}
