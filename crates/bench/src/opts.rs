//! Command-line options shared by every artefact of the `paper` binary.

use std::path::PathBuf;

use tad_eval::cities::Scale;

/// Which of the two standard cities to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CityChoice {
    Xian,
    Chengdu,
    Both,
}

/// Parsed options: `--scale quick|paper`, `--city xian|chengdu|both`,
/// `--out <dir>` (CSV output), `--epochs <n>` (override training length).
#[derive(Clone, Debug)]
pub struct Opts {
    pub scale: Scale,
    pub city: CityChoice,
    pub out_dir: Option<PathBuf>,
    pub epochs: Option<usize>,
}

impl Default for Opts {
    fn default() -> Self {
        Opts { scale: Scale::Quick, city: CityChoice::Both, out_dir: None, epochs: None }
    }
}

impl Opts {
    /// Pure parser, testable without process state.
    pub fn parse(args: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut opts = Opts::default();
        let mut args = args.peekable();
        while let Some(arg) = args.next() {
            let mut value = |name: &str| -> Result<String, String> {
                args.next().ok_or_else(|| format!("{name} needs a value"))
            };
            match arg.as_str() {
                "--scale" => {
                    let v = value("--scale")?;
                    opts.scale = Scale::parse(&v).ok_or(format!("unknown scale {v:?}"))?;
                }
                "--city" => {
                    opts.city = match value("--city")?.to_ascii_lowercase().as_str() {
                        "xian" | "xian-s" => CityChoice::Xian,
                        "chengdu" | "chengdu-s" => CityChoice::Chengdu,
                        "both" => CityChoice::Both,
                        other => return Err(format!("unknown city {other:?}")),
                    };
                }
                "--out" => opts.out_dir = Some(PathBuf::from(value("--out")?)),
                "--epochs" => {
                    opts.epochs = Some(
                        value("--epochs")?
                            .parse()
                            .map_err(|_| "--epochs needs an integer".to_string())?,
                    );
                }
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        Ok(opts)
    }

    /// Writes a CSV artefact when `--out` is set; always a no-op otherwise.
    pub fn write_csv(&self, name: &str, csv: &str) {
        let Some(dir) = &self.out_dir else { return };
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("warning: cannot create {dir:?}: {e}");
            return;
        }
        let path = dir.join(format!("{name}.csv"));
        if let Err(e) = std::fs::write(&path, csv) {
            eprintln!("warning: cannot write {path:?}: {e}");
        } else {
            eprintln!("wrote {path:?}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Opts, String> {
        Opts::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults() {
        let o = parse(&[]).unwrap();
        assert_eq!(o.scale, Scale::Quick);
        assert_eq!(o.city, CityChoice::Both);
        assert!(o.out_dir.is_none());
        assert!(o.epochs.is_none());
    }

    #[test]
    fn full_args() {
        let o = parse(&["--scale", "paper", "--city", "xian", "--out", "/tmp/x", "--epochs", "3"])
            .unwrap();
        assert_eq!(o.scale, Scale::Paper);
        assert_eq!(o.city, CityChoice::Xian);
        assert_eq!(o.out_dir.as_deref(), Some(std::path::Path::new("/tmp/x")));
        assert_eq!(o.epochs, Some(3));
    }

    #[test]
    fn rejects_unknown() {
        assert!(parse(&["--wat"]).is_err());
        assert!(parse(&["--scale", "giant"]).is_err());
        assert!(parse(&["--scale"]).is_err());
    }
}
