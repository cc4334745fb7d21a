"""Monthly emotion time series from discussion archives.

The library turns a timestamped message corpus into monthly valence,
arousal and dominance series by scoring subject-line tokens against an
affective lexicon, analyzes those series (causal Hamming smoothing,
rolling windowed correlation with significance), and fits lagged
regressions that forecast an external monthly attitude series one step
ahead, including a surrogate-permutation significance test. The
``moodcast`` command line drives the same stages end to end.
"""

__version__ = "0.1.0"
