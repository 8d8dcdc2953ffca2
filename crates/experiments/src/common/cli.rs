//! Minimal command-line parsing for the experiment binaries.
//!
//! No external CLI crate is in the approved dependency set, and the flags
//! are few, so a small hand parser suffices:
//!
//! ```text
//! --scale <f64>         dataset scale factor (1.0 = paper scale; default 0.15)
//! --epochs <n>          training epochs (default 40; paper uses 100)
//! --seed <n>            master RNG seed (default 42)
//! --threads <n>         evaluation threads (default 4)
//! --k-negatives <n>     negatives sampled per positive pair (default 1 =
//!                       the paper's Algorithm 1; > 1 is the multi-negative
//!                       batch workload)
//! --csv <dir>           also write CSV series into <dir>
//! --save-artifact <p>   freeze each trained model into a bns-serve
//!                       ModelArtifact at <p> (multi-run binaries
//!                       overwrite: the last completed run wins)
//! --quick               tiny preset for smoke tests (scale 0.08, 12 epochs)
//! ```

use std::path::PathBuf;

/// Parsed harness arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct HarnessArgs {
    /// Dataset scale factor (1.0 = paper scale).
    pub scale: f64,
    /// Training epochs.
    pub epochs: usize,
    /// Master seed.
    pub seed: u64,
    /// Evaluation threads.
    pub threads: usize,
    /// Negatives per positive pair (1 = the paper's Algorithm 1).
    pub k_negatives: usize,
    /// Optional CSV output directory.
    pub csv: Option<PathBuf>,
    /// Optional path to freeze trained models into (`bns-serve` artifact).
    pub save_artifact: Option<PathBuf>,
}

impl Default for HarnessArgs {
    fn default() -> Self {
        Self {
            scale: 0.15,
            epochs: 40,
            seed: 42,
            threads: 4,
            k_negatives: 1,
            csv: None,
            save_artifact: None,
        }
    }
}

impl HarnessArgs {
    /// Parses from an iterator of argument strings (excluding `argv[0]`).
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Self, String> {
        let mut out = Self::default();
        let mut iter = args.into_iter();
        while let Some(flag) = iter.next() {
            match flag.as_str() {
                "--scale" => out.scale = take_value(&mut iter, "--scale")?,
                "--epochs" => out.epochs = take_value(&mut iter, "--epochs")?,
                "--seed" => out.seed = take_value(&mut iter, "--seed")?,
                "--threads" => out.threads = take_value(&mut iter, "--threads")?,
                "--k-negatives" => out.k_negatives = take_value(&mut iter, "--k-negatives")?,
                "--csv" => {
                    let dir = iter.next().ok_or("--csv requires a directory")?;
                    out.csv = Some(PathBuf::from(dir));
                }
                "--save-artifact" => {
                    let path = iter.next().ok_or("--save-artifact requires a path")?;
                    out.save_artifact = Some(PathBuf::from(path));
                }
                "--quick" => {
                    out.scale = 0.08;
                    out.epochs = 12;
                }
                "--help" | "-h" => return Err(Self::usage().to_string()),
                other => return Err(format!("unknown flag `{other}`\n{}", Self::usage())),
            }
        }
        if !(out.scale > 0.0 && out.scale <= 1.0) {
            return Err("--scale must be in (0, 1]".into());
        }
        if out.epochs == 0 {
            return Err("--epochs must be > 0".into());
        }
        if out.threads == 0 {
            return Err("--threads must be > 0".into());
        }
        if out.k_negatives == 0 {
            return Err("--k-negatives must be > 0".into());
        }
        Ok(out)
    }

    /// Parses from the process arguments, exiting with a message on error.
    pub fn from_env() -> Self {
        match Self::parse(std::env::args().skip(1)) {
            Ok(args) => args,
            Err(msg) => {
                eprintln!("{msg}");
                std::process::exit(2);
            }
        }
    }

    /// Usage text.
    pub fn usage() -> &'static str {
        "usage: <bin> [--scale F] [--epochs N] [--seed N] [--threads N] [--k-negatives N] [--csv DIR] [--save-artifact PATH] [--quick]"
    }
}

fn take_value<T: std::str::FromStr, I: Iterator<Item = String>>(
    iter: &mut I,
    flag: &str,
) -> Result<T, String> {
    let raw = iter
        .next()
        .ok_or_else(|| format!("{flag} requires a value"))?;
    raw.parse::<T>()
        .map_err(|_| format!("invalid value `{raw}` for {flag}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<HarnessArgs, String> {
        HarnessArgs::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults() {
        let a = parse(&[]).unwrap();
        assert_eq!(a, HarnessArgs::default());
    }

    #[test]
    fn full_flag_set() {
        let a = parse(&[
            "--scale",
            "0.5",
            "--epochs",
            "77",
            "--seed",
            "9",
            "--threads",
            "2",
            "--k-negatives",
            "3",
            "--csv",
            "/tmp/x",
            "--save-artifact",
            "/tmp/model.bnsa",
        ])
        .unwrap();
        assert_eq!(a.scale, 0.5);
        assert_eq!(a.epochs, 77);
        assert_eq!(a.seed, 9);
        assert_eq!(a.threads, 2);
        assert_eq!(a.k_negatives, 3);
        assert_eq!(a.csv, Some(PathBuf::from("/tmp/x")));
        assert_eq!(a.save_artifact, Some(PathBuf::from("/tmp/model.bnsa")));
    }

    #[test]
    fn quick_preset() {
        let a = parse(&["--quick"]).unwrap();
        assert!(a.scale < 0.1);
        assert!(a.epochs <= 15);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse(&["--scale"]).is_err());
        assert!(parse(&["--scale", "abc"]).is_err());
        assert!(parse(&["--scale", "0"]).is_err());
        assert!(parse(&["--scale", "1.5"]).is_err());
        assert!(parse(&["--epochs", "0"]).is_err());
        assert!(parse(&["--threads", "0"]).is_err());
        // A removed flag must be rejected, never silently ignored.
        let err = parse(&["--train-threads", "2"]).unwrap_err();
        assert!(err.starts_with("unknown flag `--train-threads`"), "{err}");
        assert!(parse(&["--k-negatives", "0"]).is_err());
        assert!(parse(&["--save-artifact"]).is_err());
        assert!(parse(&["--bogus"]).is_err());
        assert!(parse(&["--help"]).is_err());
    }
}
