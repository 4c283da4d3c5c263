"""mini-Bro: event engine, script language, interpreter, HILTI compiler."""

from .core import BroCore  # noqa: F401
from .interp import ScriptInterp  # noqa: F401
from .lang import BroParseError, Script, parse_script  # noqa: F401
from .logging import LogManager, normalize_log  # noqa: F401
from .main import Bro, default_scripts  # noqa: F401
from .parallel import ParallelBro  # noqa: F401
from .val import RecordVal  # noqa: F401
